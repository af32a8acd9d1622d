package main

import (
	"bytes"
	"testing"
)

func draw(g *opGen, n int) [][]byte {
	var ops [][]byte
	for i := 0; i < n; i++ {
		ops = append(ops, g.Next(nil).Op)
	}
	return ops
}

func TestGeneratorIsSeeded(t *testing.T) {
	a := draw(newOpGen(7, 1024, 0.5, 128), 200)
	b := draw(newOpGen(7, 1024, 0.5, 128), 200)
	c := draw(newOpGen(8, 1024, 0.5, 128), 200)
	same := func(x, y [][]byte) bool {
		for i := range x {
			if !bytes.Equal(x[i], y[i]) {
				return false
			}
		}
		return true
	}
	if !same(a, b) {
		t.Fatal("the same seed drew different operations")
	}
	if same(a, c) {
		t.Fatal("different seeds drew the same operations")
	}
	if !bytes.Equal(newBallast(7, 10, 1024).put(3), newBallast(7, 10, 1024).put(3)) ||
		bytes.Equal(newBallast(7, 10, 1024).put(3), newBallast(8, 10, 1024).put(3)) {
		t.Fatal("ballast contents do not follow the seed")
	}
}

// value returns the value a PUT operation writes.
func value(op []byte) []byte {
	return op[len("PUT k0000 "):]
}

func TestCheckAcceptsOnlyWrittenValues(t *testing.T) {
	g := newOpGen(1, 4, 0, 64)
	put := g.Next(nil) // the first PUT (readRatio 0) of some key
	k, _ := parseDigits(put.Op[len("PUT k"):len("PUT k0000")])
	get := g.gets[k]
	if err := g.check(put.Op, false, []byte("OK")); err != nil {
		t.Fatal(err)
	}
	if g.check(put.Op, false, []byte("ERR")) == nil {
		t.Fatal("a failed PUT passed")
	}
	written := append([]byte("VALUE "), value(put.Op)...)
	if err := g.check(get, true, written); err != nil {
		t.Fatalf("written value rejected: %v", err)
	}
	preload := append([]byte("VALUE "), value(g.preload()[k])...)
	if err := g.check(get, true, preload); err != nil {
		t.Fatalf("preload value rejected: %v", err)
	}

	bad := map[string][]byte{
		"unissued write": append([]byte("VALUE "), value(g.put(k, 1))...),
		"other key":      append([]byte("VALUE "), value(g.preload()[(k+1)%4])...),
		"corrupted":      append(bytes.Clone(written[:len(written)-1]), '!'),
		"not found":      []byte("NOTFOUND"),
	}
	for name, res := range bad {
		if g.check(get, true, res) == nil {
			t.Errorf("%s: GET result accepted", name)
		}
	}
}
