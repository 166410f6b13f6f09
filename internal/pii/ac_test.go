package pii

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// buildAutomatonMap is the map-based trie builder buildAutomaton replaced.
// It is retained as the oracle for the differential tests below: the
// dense builder must produce exactly its classOf, next and outputs.
func buildAutomatonMap(needles []needle) *automaton {
	a := &automaton{}

	nc := 1
	for i := range needles {
		t := foldNeedle(&needles[i])
		for j := 0; j < len(t); j++ {
			if b := t[j]; a.classOf[b] == 0 && nc < 257 {
				a.classOf[b] = uint16(nc)
				nc++
			}
		}
	}
	a.numClasses = nc

	type trieNode struct {
		children map[uint16]int32
		fail     int32
		outs     []int32
	}
	nodes := []trieNode{{children: map[uint16]int32{}}}
	for i := range needles {
		t := foldNeedle(&needles[i])
		s := int32(0)
		for j := 0; j < len(t); j++ {
			c := a.classOf[t[j]]
			nx, ok := nodes[s].children[c]
			if !ok {
				nx = int32(len(nodes))
				nodes = append(nodes, trieNode{children: map[uint16]int32{}})
				nodes[s].children[c] = nx
			}
			s = nx
		}
		nodes[s].outs = append(nodes[s].outs, int32(i))
	}

	a.next = make([]int32, len(nodes)*nc)
	a.outputs = make([][]int32, len(nodes))
	a.outputs[0] = nodes[0].outs
	queue := make([]int32, 0, len(nodes))
	for c := 0; c < nc; c++ {
		if nx, ok := nodes[0].children[uint16(c)]; ok {
			a.next[c] = nx
			queue = append(queue, nx)
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		n := &nodes[s]
		f := n.fail
		if fo := a.outputs[f]; len(fo) > 0 {
			merged := make([]int32, 0, len(n.outs)+len(fo))
			merged = append(merged, n.outs...)
			a.outputs[s] = append(merged, fo...)
		} else if len(n.outs) > 0 {
			a.outputs[s] = n.outs
		}
		row := int(s) * nc
		frow := int(f) * nc
		for c := 0; c < nc; c++ {
			if nx, ok := n.children[uint16(c)]; ok {
				a.next[row+c] = nx
				nodes[nx].fail = a.next[frow+c]
				queue = append(queue, nx)
			} else {
				a.next[row+c] = a.next[frow+c]
			}
		}
	}
	return a
}

// diffAutomaton reports the first table on which the dense builder and
// the map-based oracle disagree for the needle set, or nil.
func diffAutomaton(needles []needle) error {
	got, want := buildAutomaton(needles), buildAutomatonMap(needles)
	switch {
	case got.classOf != want.classOf:
		return fmt.Errorf("classOf differs")
	case got.numClasses != want.numClasses:
		return fmt.Errorf("numClasses %d, oracle %d", got.numClasses, want.numClasses)
	case !reflect.DeepEqual(got.next, want.next):
		return fmt.Errorf("next differs (%d entries, oracle %d)", len(got.next), len(want.next))
	case !reflect.DeepEqual(got.outputs, want.outputs):
		return fmt.Errorf("outputs differ (%d states, oracle %d)", len(got.outputs), len(want.outputs))
	}
	return nil
}

// diffRecordAutomaton runs diffAutomaton over a record's needles; the
// catalog-wide test in the external package calls it.
func diffRecordAutomaton(rec *Record) error { return diffAutomaton(buildNeedles(rec)) }

func TestBuildAutomatonMatchesOracle(t *testing.T) {
	if err := diffRecordAutomaton(testRecord()); err != nil {
		t.Fatal(err)
	}
	if err := diffAutomaton(nil); err != nil {
		t.Fatalf("no needles: %v", err)
	}
}

// randomNeedles draws a needle set that stresses the trie shape:
// duplicates (also case-only duplicates that fold together), needles
// sharing prefixes, needles that are suffixes of other needles (the
// fail-chain output merge), and, with every256, one needle per byte
// value, so every byte that survives folding gets its own class.
func randomNeedles(rng *rand.Rand, every256 bool) []needle {
	const alphabet = "abcAB0-"
	word := func(n int) string {
		b := make([]byte, n)
		for i := range b {
			b[i] = alphabet[rng.Intn(len(alphabet))]
		}
		return string(b)
	}
	var texts []string
	for i, n := 0, 1+rng.Intn(40); i < n; i++ {
		var t string
		switch {
		case len(texts) == 0 || rng.Intn(5) == 0:
			t = word(1 + rng.Intn(8))
		default:
			prev := texts[rng.Intn(len(texts))]
			switch rng.Intn(4) {
			case 0: // duplicate, possibly differing only in case
				t = prev
				if rng.Intn(2) == 0 {
					t = strings.ToUpper(prev)
				}
			case 1: // shared prefix
				t = prev[:rng.Intn(len(prev)+1)] + word(1+rng.Intn(4))
			case 2: // suffix of an existing needle
				t = prev[rng.Intn(len(prev)):]
			default: // existing needle as a suffix of a new one
				t = word(1+rng.Intn(3)) + prev
			}
		}
		texts = append(texts, t)
	}
	if every256 {
		for c := 0; c < 256; c++ {
			texts = append(texts, string([]byte{byte(c), byte(255 - c)}))
		}
		rng.Shuffle(len(texts), func(i, j int) { texts[i], texts[j] = texts[j], texts[i] })
	}
	needles := make([]needle, len(texts))
	for i, t := range texts {
		needles[i] = needle{text: t, fold: rng.Intn(2) == 0}
	}
	return needles
}

func TestBuildAutomatonRandomMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		needles := randomNeedles(rng, i%10 == 0)
		if err := diffAutomaton(needles); err != nil {
			texts := make([]string, len(needles))
			for j := range needles {
				texts[j] = needles[j].text
			}
			t.Fatalf("case %d: %v\nneedles: %q", i, err, texts)
		}
	}
}

func TestBuildAutomatonClassCap(t *testing.T) {
	needles := randomNeedles(rand.New(rand.NewSource(2)), true)
	a := buildAutomaton(needles)
	// Every byte value appears in some needle; the 26 upper-case letters
	// fold onto their lower-case class, so 230 classes plus class 0.
	if a.numClasses != 256-26+1 {
		t.Fatalf("numClasses = %d, want %d", a.numClasses, 256-26+1)
	}
	if err := diffAutomaton(needles); err != nil {
		t.Fatal(err)
	}
}
