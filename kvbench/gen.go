package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"sync/atomic"

	"github.com/troxy-bft/troxy/internal/workload"
)

// Every value the benchmark writes names its key and which of that key's
// PUTs produced it, so a GET result can be checked in memory that does not
// grow with the run:
//
//	<key index, 4 digits>.<write number, 9 digits>.<body>
//
// The body is a seeded filler chosen by key and write number. Preloaded
// values carry the reserved write number preloadID.
const (
	valueHeader = 4 + 1 + 9 + 1
	preloadID   = 999_999_999
	bodyPool    = 64
)

// opGen draws the closed-loop clients' operations from its own seeded source.
// legacyclient hands Next the node's runtime source, which realnet seeds from
// the clock, so that argument is ignored: the seed alone decides the inputs.
// Next and check run on the client machine's goroutine only.
type opGen struct {
	rng       *rand.Rand
	keys      int
	readRatio float64
	valueSize int
	bodies    [][]byte // bodyPool seeded fillers of valueSize-valueHeader bytes
	names     []string // key names, k%04d
	gets      [][]byte // prebuilt "GET k%04d" per key (never mutated)

	// writes counts the PUTs issued per key.
	writes []uint32

	attempted atomic.Uint64
}

var _ workload.Generator = (*opGen)(nil)

func newOpGen(seed int64, keys int, readRatio float64, valueSize int) *opGen {
	if keys > 9999 || valueSize <= valueHeader {
		panic(fmt.Sprintf("kvbench: unsupported keyspace %d / value size %d", keys, valueSize))
	}
	g := &opGen{
		rng:       rand.New(rand.NewSource(seed)),
		keys:      keys,
		readRatio: readRatio,
		valueSize: valueSize,
	}
	g.bodies = fillers(rand.New(rand.NewSource(seed^0x5eed)), bodyPool, valueSize-valueHeader)
	g.writes = make([]uint32, keys)
	for k := 0; k < keys; k++ {
		g.names = append(g.names, fmt.Sprintf("k%04d", k))
		g.gets = append(g.gets, []byte("GET "+g.names[k]))
	}
	return g
}

// fillers returns n seeded lowercase byte strings of the given size.
func fillers(rng *rand.Rand, n, size int) [][]byte {
	out := make([][]byte, n)
	for i := range out {
		b := make([]byte, size)
		for j := range b {
			b[j] = byte('a' + rng.Intn(26))
		}
		out[i] = b
	}
	return out
}

// Next implements workload.Generator.
func (g *opGen) Next(*rand.Rand) workload.Op {
	g.attempted.Add(1)
	k := g.rng.Intn(g.keys)
	if g.rng.Float64() < g.readRatio {
		return workload.Op{Op: g.gets[k], Read: true}
	}
	id := int(g.writes[k])
	g.writes[k]++
	return workload.Op{Op: g.put(k, id)}
}

// body is the filler of write number id of key k.
func (g *opGen) body(k, id int) []byte { return g.bodies[(7*k+id)%bodyPool] }

// put builds "PUT k%04d <value>" for write number id of key k.
func (g *opGen) put(k, id int) []byte {
	op := make([]byte, 0, 4+5+1+g.valueSize)
	op = append(op, "PUT "...)
	op = append(op, g.names[k]...)
	op = append(op, ' ')
	op = appendPadded(op, k, 4)
	op = append(op, '.')
	op = appendPadded(op, id, 9)
	op = append(op, '.')
	return append(op, g.body(k, id)...)
}

// appendPadded appends v in decimal, zero-padded to width digits.
func appendPadded(b []byte, v, width int) []byte {
	var digits [20]byte
	d := strconv.AppendInt(digits[:0], int64(v), 10)
	for i := len(d); i < width; i++ {
		b = append(b, '0')
	}
	return append(b, d...)
}

// preload returns the PUT operations that give every key its initial value.
func (g *opGen) preload() [][]byte {
	ops := make([][]byte, g.keys)
	for k := range ops {
		ops[k] = g.put(k, preloadID)
	}
	return ops
}

// check validates one completed operation's result: PUTs answer OK, and a
// GET returns the key's preload or a value some PUT of that key wrote.
func (g *opGen) check(op []byte, read bool, result []byte) error {
	if !read {
		if !bytes.Equal(result, []byte("OK")) {
			return fmt.Errorf("PUT %.24q answered %.40q", op, result)
		}
		return nil
	}
	k, ok := parseDigits(bytes.TrimPrefix(op, []byte("GET k")))
	if !ok || k >= g.keys {
		return fmt.Errorf("unexpected read %.24q", op)
	}
	v, ok := bytes.CutPrefix(result, []byte("VALUE "))
	if !ok || len(v) != g.valueSize || v[4] != '.' || v[valueHeader-1] != '.' {
		return fmt.Errorf("GET k%04d answered %.40q", k, result)
	}
	vk, ok1 := parseDigits(v[:4])
	id, ok2 := parseDigits(v[5 : valueHeader-1])
	if !ok1 || !ok2 || vk != k {
		return fmt.Errorf("GET k%04d returned a value of another key: %.40q", k, v)
	}
	if id != preloadID && id >= int(g.writes[k]) {
		return fmt.Errorf("GET k%04d returned write %d, but only %d were issued", k, id, g.writes[k])
	}
	if !bytes.Equal(v[valueHeader:], g.body(k, id)) {
		return fmt.Errorf("GET k%04d returned a corrupted value of write %d", k, id)
	}
	return nil
}

// parseDigits parses a non-empty run of decimal digits without allocating.
func parseDigits(b []byte) (int, bool) {
	if len(b) == 0 || len(b) > 9 {
		return 0, false
	}
	v := 0
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + int(c-'0')
	}
	return v, true
}

// ballast is the large-state workload's extra preloaded state: keys
// b%05d holding size-byte seeded values, disjoint from the traffic keys.
type ballast struct {
	keys   int
	bodies [][]byte
}

func newBallast(seed int64, keys, size int) ballast {
	if keys == 0 {
		return ballast{}
	}
	return ballast{keys: keys, bodies: fillers(rand.New(rand.NewSource(seed^0xba11a57)), bodyPool, size-6)}
}

func (b ballast) key(i int) string { return fmt.Sprintf("b%05d", i) }

func (b ballast) value(i int) []byte {
	return append(fmt.Appendf(nil, "%05d.", i), b.bodies[i%bodyPool]...)
}

func (b ballast) put(i int) []byte {
	return append([]byte("PUT "+b.key(i)+" "), b.value(i)...)
}
