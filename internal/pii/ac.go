package pii

import "sort"

// Single-pass multi-pattern matching (docs/performance.md): the Matcher
// compiles every (value, encoding) needle into one Aho–Corasick automaton
// at construction, so scanning a flow section costs one pass over its
// bytes regardless of needle count, instead of one strings.Contains pass
// per needle. ReCon-style augmentation multiplies ground-truth values by
// ten wire encodings, so a realistic record carries hundreds of needles —
// the per-needle scan was the campaign's hottest loop.
//
// Design notes:
//
//   - Needles are inserted case-folded (asciiLower, byte-wise ASCII). The
//     scan folds content bytes on the fly, so no lowercased copy of the
//     content is ever allocated. Case-sensitive needles (base64 and
//     friends) verify the raw bytes at the hit position before counting.
//   - The transition table is dense over *byte classes*, not raw bytes:
//     every byte that appears in no needle shares one class, which keeps
//     the table at states × (distinct needle bytes + 1) int32s.
//   - Fail links are resolved at build time into a full DFA, so the scan
//     loop is exactly one table read per content byte.
//   - Output lists are pre-merged along fail chains: outputs[s] holds every
//     needle ending at state s, including suffix needles.
type automaton struct {
	classOf    [256]uint16 // byte → class; 0 = "appears in no needle"
	numClasses int
	next       []int32   // state*numClasses + class → next state
	outputs    [][]int32 // state → needle indices ending here (nil for most)
}

// foldNeedle returns the byte sequence inserted into the trie: the
// ASCII-folded needle text. Folding every needle (case-sensitive ones
// included) lets one automaton serve both match modes; case-sensitive hits
// are verified against the raw content afterwards.
func foldNeedle(n *needle) string { return asciiLower(n.text) }

// foldByte is the scan-time counterpart of asciiLower.
func foldByte(c byte) byte {
	if c >= 'A' && c <= 'Z' {
		return c + ('a' - 'A')
	}
	return c
}

func buildAutomaton(needles []needle) *automaton {
	a := &automaton{}

	// Assign byte classes. Class 0 is reserved for bytes no needle
	// contains; from any state such a byte can only lead back to the root.
	folded := make([]string, len(needles))
	nc := 1
	for i := range needles {
		t := foldNeedle(&needles[i])
		folded[i] = t
		for j := 0; j < len(t); j++ {
			if b := t[j]; a.classOf[b] == 0 && nc < 257 {
				a.classOf[b] = uint16(nc)
				nc++
			}
		}
	}
	a.numClasses = nc

	// Build the goto trie straight into the dense rows, with -1 marking
	// an edge the BFS below has yet to resolve. The table is sized once:
	// each folded needle adds one state per byte past its longest common
	// prefix with its predecessor in sorted order.
	nodes := trieSize(folded)
	a.next = make([]int32, nodes*nc)
	for i := range a.next {
		a.next[i] = -1
	}
	a.outputs = make([][]int32, nodes)
	n := int32(1)
	for i, t := range folded {
		s := int32(0)
		for j := 0; j < len(t); j++ {
			e := int(s)*nc + int(a.classOf[t[j]])
			if a.next[e] < 0 {
				a.next[e] = n
				n++
			}
			s = a.next[e]
		}
		a.outputs[s] = append(a.outputs[s], int32(i))
	}

	// BFS: compute fail links, pre-merge outputs, and resolve the dense
	// DFA row of each state. A state's fail has strictly smaller depth, so
	// its row and merged outputs are always complete when needed; a
	// state's own row still holds only its trie children (>0) and -1.
	fail := make([]int32, nodes)
	queue := make([]int32, 0, nodes)
	for c := 0; c < nc; c++ {
		if nx := a.next[c]; nx > 0 {
			queue = append(queue, nx)
		} else {
			a.next[c] = 0
		}
	}
	for qi := 0; qi < len(queue); qi++ {
		s := queue[qi]
		f := fail[s]
		if fo := a.outputs[f]; len(fo) > 0 {
			own := a.outputs[s]
			merged := make([]int32, 0, len(own)+len(fo))
			merged = append(merged, own...)
			a.outputs[s] = append(merged, fo...)
		}
		row := int(s) * nc
		frow := int(f) * nc
		for c := 0; c < nc; c++ {
			if nx := a.next[row+c]; nx > 0 {
				fail[nx] = a.next[frow+c]
				queue = append(queue, nx)
			} else {
				a.next[row+c] = a.next[frow+c]
			}
		}
	}
	return a
}

// trieSize counts the states of the trie over the given strings, root
// included: sorted, each string shares its longest common prefix with its
// predecessor and adds a state for every byte beyond it.
func trieSize(folded []string) int {
	sorted := append([]string(nil), folded...)
	sort.Strings(sorted)
	n, prev := 1, ""
	for _, t := range sorted {
		k := 0
		for k < len(t) && k < len(prev) && t[k] == prev[k] {
			k++
		}
		n += len(t) - k
		prev = t
	}
	return n
}

// NumStates reports the automaton's state count (sizing/diagnostics).
func (m *Matcher) NumStates() int {
	if m.ac == nil {
		return 0
	}
	return len(m.ac.outputs)
}
