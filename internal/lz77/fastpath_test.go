package lz77

import (
	"bytes"
	"math/rand"
	"testing"
)

// matchLenRef is the byte-at-a-time reference formulation the word-compare
// matchLen must agree with everywhere.
func matchLenRef(s []byte, a, b, limit int) int {
	n := 0
	for n < limit && s[a+n] == s[b+n] {
		n++
	}
	return n
}

// TestMatchLenDifferential pins the 8-byte-word matchLen to the byte loop
// on adversarial inputs: a mismatch planted at every offset around the
// word size, every limit around the word size, and unaligned positions.
func TestMatchLenDifferential(t *testing.T) {
	base := make([]byte, 256)
	rng := rand.New(rand.NewSource(7))
	rng.Read(base)

	check := func(s []byte, a, b, limit int) {
		t.Helper()
		got := matchLen(s, a, b, limit)
		want := matchLenRef(s, a, b, limit)
		if got != want {
			t.Fatalf("matchLen(a=%d, b=%d, limit=%d) = %d, want %d", a, b, limit, got, want)
		}
	}

	// Mismatch planted at every offset 0..40 past b, for every limit 0..48
	// and unaligned a: exercises the first differing byte landing in every
	// lane of the 8-byte word and in the tail loop.
	for mismatch := 0; mismatch <= 40; mismatch++ {
		for _, a := range []int{0, 1, 3, 7, 8, 13} {
			b := 100 + a%3 // keep a < b, unaligned relative offsets
			s := append([]byte(nil), base...)
			copy(s[b:], s[a:a+50])
			if b+mismatch < len(s) {
				s[b+mismatch] ^= 0x40
			}
			for limit := 0; limit <= 48 && b+limit <= len(s); limit++ {
				check(s, a, b, limit)
			}
		}
	}

	// Identical overlapping regions (the RLE case: a+limit may exceed b).
	run := bytes.Repeat([]byte{0xAB}, 300)
	for _, dist := range []int{1, 2, 7, 8, 9} {
		for limit := 0; limit <= MaxMatch && 150+limit <= len(run); limit++ {
			check(run, 150-dist, 150, limit)
		}
	}

	// Random fuzzing over low-entropy input (frequent partial matches).
	src := make([]byte, 4096)
	for i := range src {
		src[i] = byte(rng.Intn(4))
	}
	for trial := 0; trial < 20000; trial++ {
		b := 1 + rng.Intn(len(src)-1)
		a := rng.Intn(b)
		limit := rng.Intn(len(src) - b + 1)
		if limit > MaxMatch {
			limit = MaxMatch
		}
		check(src, a, b, limit)
	}
}

// findAllValid walks src through a finder the way an encoder would and
// checks every reported match is a real back-reference.
func findAllValid(t *testing.T, f *Finder, src []byte) int {
	t.Helper()
	matched := 0
	i := 0
	for i < len(src) {
		m := f.Find(i)
		if m.Length > 0 {
			if m.Length < MinMatch || m.Length > MaxMatch {
				t.Fatalf("pos %d: bad length %+v", i, m)
			}
			if m.Distance <= 0 || m.Distance > i || m.Distance > MaxDistance {
				t.Fatalf("pos %d: bad distance %+v", i, m)
			}
			if !bytes.Equal(src[i:i+m.Length], src[i-m.Distance:i-m.Distance+m.Length]) {
				t.Fatalf("pos %d: match content mismatch %+v", i, m)
			}
			f.Insert(i)
			f.InsertRange(i+1, m.Length-1)
			i += m.Length
			matched += m.Length
			continue
		}
		f.Insert(i)
		i++
	}
	return matched
}

// TestDepthVariantsValid runs the default and a shallow chain depth over
// repetitive and random inputs: depth may change which matches are found,
// but every match must stay a valid back-reference.
func TestDepthVariantsValid(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	text := bytes.Repeat([]byte("INSERT INTO lineitem VALUES (42, 'x');\n"), 400)
	noise := make([]byte, 8192)
	rng.Read(noise)
	runs := append(bytes.Repeat([]byte{5}, 2000), noise[:512]...)

	for _, src := range [][]byte{text, noise, runs} {
		for _, depth := range []int{0, 16} {
			f := NewFinder(src, depth)
			matched := findAllValid(t, f, src)
			if &src[0] == &text[0] && matched == 0 {
				t.Fatalf("depth %d found no matches in repetitive text", depth)
			}
		}
	}
}

// TestInsertRangeMatchesInsert pins InsertRange to be exactly n Inserts: the chains (and therefore every future Find) must be
// identical, since the default archival encoder runs through InsertRange.
func TestInsertRangeMatchesInsert(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	src := make([]byte, 3000)
	for i := range src {
		src[i] = byte(rng.Intn(6))
	}
	a := NewFinder(src, 64)
	b := NewFinder(src, 64)
	i := 0
	for i < len(src) {
		n := 1 + rng.Intn(300)
		if i+n > len(src) {
			n = len(src) - i
		}
		for j := 0; j < n; j++ {
			a.Insert(i + j)
		}
		b.InsertRange(i, n)
		i += n
	}
	for i := range a.head {
		if a.head[i] != b.head[i] {
			t.Fatalf("head[%d]: %d vs %d", i, a.head[i], b.head[i])
		}
	}
	for i := range a.prev {
		if a.prev[i] != b.prev[i] {
			t.Fatalf("prev[%d]: %d vs %d", i, a.prev[i], b.prev[i])
		}
	}
}

func BenchmarkMatchLen(b *testing.B) {
	src := bytes.Repeat([]byte{3}, MaxMatch+64)
	b.Run("long", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if matchLen(src, 0, 64, MaxMatch) != MaxMatch {
				b.Fatal("bad length")
			}
		}
	})
	src2 := append([]byte(nil), src...)
	src2[64+5] ^= 1
	b.Run("short", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if matchLen(src2, 0, 64, MaxMatch) != 5 {
				b.Fatal("bad length")
			}
		}
	})
}
