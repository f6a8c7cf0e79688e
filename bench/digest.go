package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sort"
)

// digest is an FNV-64a hash over every field of a simulated result,
// reached by reflection so a field added to sched.Result or
// cluster.Result is covered without touching this file. Maps are hashed
// in sorted key order, so the digest is a pure function of the value.
func digest(v any) string {
	h := fnv.New64a()
	var buf bytes.Buffer
	encode(&buf, reflect.ValueOf(v))
	_, _ = h.Write(buf.Bytes()) // hash.Hash writes never fail
	return fmt.Sprintf("%016x", h.Sum64())
}

// encode appends a canonical binary encoding of v to buf.
func encode(buf *bytes.Buffer, v reflect.Value) {
	word := func(x uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], x)
		buf.Write(b[:])
	}
	if !v.IsValid() {
		buf.WriteByte(0)
		return
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			word(1)
		} else {
			word(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		word(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		word(v.Uint())
	case reflect.Float32, reflect.Float64:
		word(math.Float64bits(v.Float()))
	case reflect.String:
		word(uint64(v.Len()))
		buf.WriteString(v.String())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			buf.WriteByte(0)
			return
		}
		buf.WriteByte(1)
		word(uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			encode(buf, v.Index(i))
		}
	case reflect.Map:
		if v.IsNil() {
			buf.WriteByte(0)
			return
		}
		buf.WriteByte(1)
		type entry struct{ k, v []byte }
		entries := make([]entry, 0, v.Len())
		for it := v.MapRange(); it.Next(); {
			var kb, vb bytes.Buffer
			encode(&kb, it.Key())
			encode(&vb, it.Value())
			entries = append(entries, entry{kb.Bytes(), vb.Bytes()})
		}
		sort.Slice(entries, func(i, j int) bool { return bytes.Compare(entries[i].k, entries[j].k) < 0 })
		word(uint64(len(entries)))
		for _, e := range entries {
			buf.Write(e.k)
			buf.Write(e.v)
		}
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			buf.WriteByte(0)
			return
		}
		buf.WriteByte(1)
		encode(buf, v.Elem())
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			encode(buf, v.Field(i))
		}
	default:
		panic(fmt.Sprintf("digest: cannot encode %s", v.Type()))
	}
}
