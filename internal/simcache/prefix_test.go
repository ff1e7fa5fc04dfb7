package simcache

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// TestPrefixMatchesKey: a key completed from a prefix is the key built
// in one go, for random part lists (empty parts, empty lists, parts
// longer than a SHA-256 block) under every store flavour, and the
// prefix is reusable.
func TestPrefixMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	part := func() string {
		n := r.Intn(4)
		if n == 3 {
			n = 64 + r.Intn(2000)
		} else {
			n *= r.Intn(40)
		}
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(r.Intn(256))
		}
		return string(b)
	}
	stores := []*Store{nil, New(Options{}), New(Options{Version: "v0-test"})}
	for i := 0; i < 1000; i++ {
		s := stores[i%len(stores)]
		parts := make([]string, r.Intn(5))
		for j := range parts {
			parts[j] = part()
		}
		p := s.Prefix(parts...)
		for j := 0; j < 2; j++ {
			last := part()
			if got, want := p.Key(last), s.Key(append(parts[:len(parts):len(parts)], last)...); got != want {
				t.Fatalf("case %d: Prefix(%d parts).Key = %s, Key = %s", i, len(parts), got.Hex(), want.Hex())
			}
		}
	}
	// One prefix serves concurrent keys (campaign bucket jobs share it).
	shared := New(Options{}).Prefix("cfg", "prog", "rc")
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				last := string(rune('a' + i%26))
				if shared.Key(last) != New(Options{}).Key("cfg", "prog", "rc", last) {
					t.Error("concurrent Prefix.Key differs from Key")
					return
				}
			}
		}()
	}
	wg.Wait()

	// The prefix keeps the version and the part boundaries.
	if New(Options{}).Prefix("a").Key("b") == New(Options{Version: "v0-test"}).Prefix("a").Key("b") {
		t.Error("engine version does not participate in the prefix")
	}
	if New(Options{}).Prefix("ab").Key("c") == New(Options{}).Prefix("a").Key("bc") {
		t.Error("prefix part boundaries are ambiguous")
	}
	if New(Options{}).Prefix(strings.Repeat("x", 100)).Key("") == New(Options{}).Key(strings.Repeat("x", 100)) {
		t.Error("an empty last part is not a part")
	}
}
