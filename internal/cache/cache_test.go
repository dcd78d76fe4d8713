package cache

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	ok := Config{Name: "ok", Size: 4096, LineSize: 16, Assoc: 1}
	if err := ok.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Size: 0, LineSize: 16, Assoc: 1},
		{Size: 3000, LineSize: 16, Assoc: 1},   // size not power of two
		{Size: 4096, LineSize: 0, Assoc: 1},    // zero line
		{Size: 4096, LineSize: 24, Assoc: 1},   // line not power of two
		{Size: 16, LineSize: 64, Assoc: 1},     // line > size
		{Size: 4096, LineSize: 16, Assoc: 300}, // assoc > lines
		{Size: 4096, LineSize: 16, Assoc: -2},  // negative assoc
		{Size: 4096, LineSize: 16, Assoc: 3},   // lines % assoc != 0
		{Size: 64, LineSize: 16, Assoc: 1, Replacement: 99},
		{Size: 64, LineSize: 16, Assoc: 1, WritePolicy: 99},
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
	}
}

func TestConfigGeometry(t *testing.T) {
	cfg := Config{Size: 4096, LineSize: 16, Assoc: 4}
	if got := cfg.Lines(); got != 256 {
		t.Errorf("Lines = %d, want 256", got)
	}
	if got := cfg.Sets(); got != 64 {
		t.Errorf("Sets = %d, want 64", got)
	}
	fa := Config{Size: 4096, LineSize: 16, Assoc: FullyAssociative}
	if got := fa.Sets(); got != 1 {
		t.Errorf("fully-associative Sets = %d, want 1", got)
	}
}

func TestNewRejectsInvalid(t *testing.T) {
	if _, err := New(Config{Size: 7}); err == nil {
		t.Fatal("New accepted invalid config")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNew did not panic on invalid config")
		}
	}()
	MustNew(Config{Size: 7})
}

func TestDirectMappedBasics(t *testing.T) {
	// 4 lines of 16B, direct-mapped: addresses 0x00 and 0x40 collide.
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 1})

	if c.Probe(0x00, false) {
		t.Fatal("empty cache hit")
	}
	c.Fill(0x00, false)
	if !c.Probe(0x04, false) {
		t.Fatal("same-line access missed after fill")
	}
	if c.Probe(0x40, false) {
		t.Fatal("conflicting line hit before fill")
	}
	v := c.Fill(0x40, false)
	if !v.Valid || v.LineAddr != c.LineAddr(0x00) {
		t.Fatalf("victim = %+v, want line of 0x00", v)
	}
	if c.Probe(0x00, false) {
		t.Fatal("displaced line still hits")
	}

	st := c.Stats()
	if st.Accesses != 4 || st.Hits != 1 || st.Misses != 3 {
		t.Errorf("stats = %+v, want 4 accesses / 1 hit / 3 misses", st)
	}
	if st.Fills != 2 || st.Evictions != 1 {
		t.Errorf("stats = %+v, want 2 fills / 1 eviction", st)
	}
}

func TestLRUWithinSet(t *testing.T) {
	// One set, 2 ways, lines of 16B, cache 32B.
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: FullyAssociative})
	c.Fill(0x000, false)
	c.Fill(0x100, false)
	// Touch 0x000 so 0x100 becomes LRU.
	if !c.Probe(0x000, false) {
		t.Fatal("0x000 missing")
	}
	v := c.Fill(0x200, false)
	if !v.Valid || v.LineAddr != c.LineAddr(0x100) {
		t.Fatalf("victim = %+v, want LRU line 0x100", v)
	}
	if !c.Contains(0x000) || !c.Contains(0x200) || c.Contains(0x100) {
		t.Error("post-eviction contents wrong")
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: FullyAssociative, Replacement: FIFO})
	c.Fill(0x000, false)
	c.Fill(0x100, false)
	// Touch 0x000 repeatedly; FIFO must still evict it first.
	for i := 0; i < 5; i++ {
		c.Probe(0x000, false)
	}
	v := c.Fill(0x200, false)
	if !v.Valid || v.LineAddr != c.LineAddr(0x000) {
		t.Fatalf("FIFO victim = %+v, want first-in line 0x000", v)
	}
}

func TestRandomReplacementIsDeterministicPerSeed(t *testing.T) {
	run := func(seed uint64) []uint64 {
		c := MustNew(Config{Size: 64, LineSize: 16, Assoc: FullyAssociative,
			Replacement: Random, RandomSeed: seed})
		var victims []uint64
		for i := 0; i < 64; i++ {
			v := c.Fill(uint64(i)*16+0x1000, false)
			if v.Valid {
				victims = append(victims, v.LineAddr)
			}
		}
		return victims
	}
	a, b := run(5), run(5)
	if len(a) != len(b) || len(a) == 0 {
		t.Fatalf("victim streams differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed produced different victims at %d", i)
		}
	}
}

func TestFillExistingRefreshes(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: FullyAssociative})
	c.Fill(0x000, false)
	c.Fill(0x100, false)
	// Re-fill 0x000 (e.g. a redundant prefetch): must not duplicate or evict.
	v := c.Fill(0x000, false)
	if v.Valid {
		t.Fatalf("re-fill evicted %+v", v)
	}
	// 0x100 is now LRU.
	v = c.Fill(0x200, false)
	if v.LineAddr != c.LineAddr(0x100) {
		t.Fatalf("victim = %+v, want 0x100 line", v)
	}
}

func TestWriteBackDirtyTracking(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: 1, WritePolicy: WriteBack})
	c.Fill(0x00, false)
	c.Probe(0x00, true)       // store hit dirties the line
	v := c.Fill(0x100, false) // wait: 0x100 maps to set (0x100/16)&1 = 0
	_ = v

	c.Reset()
	c.Fill(0x00, false)
	c.Probe(0x00, true)
	v = c.Fill(0x40, false) // same set 0 under 2 sets of 16B
	if !v.Valid || !v.Dirty {
		t.Fatalf("victim = %+v, want dirty eviction", v)
	}
	if c.Stats().Writebacks != 1 {
		t.Errorf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestWriteThroughNeverDirty(t *testing.T) {
	c := MustNew(Config{Size: 32, LineSize: 16, Assoc: 1, WritePolicy: WriteThrough})
	c.Fill(0x00, false)
	c.Probe(0x00, true)
	v := c.Fill(0x40, false)
	if v.Dirty {
		t.Fatal("write-through produced a dirty victim")
	}
	if c.Stats().Writebacks != 0 {
		t.Errorf("writebacks = %d, want 0", c.Stats().Writebacks)
	}
}

func TestInvalidate(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2, WritePolicy: WriteBack})
	c.Fill(0x00, true)
	present, dirty := c.Invalidate(0x00)
	if !present || !dirty {
		t.Fatalf("Invalidate = (%v, %v), want (true, true)", present, dirty)
	}
	if c.Contains(0x00) {
		t.Fatal("line still present after invalidate")
	}
	present, _ = c.Invalidate(0x00)
	if present {
		t.Fatal("second invalidate reported present")
	}
}

func TestAccessFillsOnMiss(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 1})
	hit, _ := c.Access(0x00, false)
	if hit {
		t.Fatal("first access hit")
	}
	hit, _ = c.Access(0x08, false)
	if !hit {
		t.Fatal("second access to same line missed")
	}
}

func TestResetClearsEverything(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2})
	for i := uint64(0); i < 16; i++ {
		c.Access(i*16, false)
	}
	c.Reset()
	if c.Stats() != (Stats{}) {
		t.Errorf("stats after reset = %+v", c.Stats())
	}
	if n := len(c.ResidentLines()); n != 0 {
		t.Errorf("%d lines survive reset", n)
	}
}

func TestStatsAddAndMissRate(t *testing.T) {
	a := Stats{Accesses: 10, Hits: 6, Misses: 4, Fills: 4, Evictions: 2, Writebacks: 1, Writes: 3}
	b := a
	a.Add(b)
	if a.Accesses != 20 || a.Misses != 8 || a.Writebacks != 2 {
		t.Errorf("Add result = %+v", a)
	}
	if got := a.MissRate(); got != 0.4 {
		t.Errorf("MissRate = %v, want 0.4", got)
	}
	if got := (Stats{}).MissRate(); got != 0 {
		t.Errorf("idle MissRate = %v, want 0", got)
	}
}

// refCache is a deliberately naive set-associative LRU model used as the
// oracle for property testing: each set is an ordered slice with
// move-to-front on touch and eviction from the back.
type refCache struct {
	lineSize uint64
	sets     [][]uint64 // sets[i] = line addrs, MRU first
	assoc    int
}

func newRefCache(size, lineSize, assoc int) *refCache {
	lines := size / lineSize
	if assoc == FullyAssociative {
		assoc = lines
	}
	return &refCache{
		lineSize: uint64(lineSize),
		sets:     make([][]uint64, lines/assoc),
		assoc:    assoc,
	}
}

// access returns whether addr hit, filling on miss.
func (r *refCache) access(addr uint64) bool {
	la := addr / r.lineSize
	si := la % uint64(len(r.sets))
	set := r.sets[si]
	for i, tag := range set {
		if tag == la {
			copy(set[1:i+1], set[:i])
			set[0] = la
			return true
		}
	}
	set = append([]uint64{la}, set...)
	if len(set) > r.assoc {
		set = set[:r.assoc]
	}
	r.sets[si] = set
	return false
}

func TestCacheMatchesReferenceModel(t *testing.T) {
	type shape struct{ size, line, assoc int }
	shapes := []shape{
		{256, 16, 1},
		{256, 16, 2},
		{256, 16, 4},
		{256, 16, FullyAssociative},
		{1024, 32, 4},
		{512, 8, 8},
	}
	for _, sh := range shapes {
		c := MustNew(Config{Size: sh.size, LineSize: sh.line, Assoc: sh.assoc})
		ref := newRefCache(sh.size, sh.line, sh.assoc)
		rng := rand.New(rand.NewSource(99))
		for i := 0; i < 20000; i++ {
			// Cluster addresses so hits and conflicts both occur.
			addr := uint64(rng.Intn(4 * sh.size))
			got, _ := c.Access(addr, false)
			want := ref.access(addr)
			if got != want {
				t.Fatalf("shape %+v access %d addr %#x: cache hit=%v, reference hit=%v",
					sh, i, addr, got, want)
			}
		}
	}
}

func TestDirectMappedEquivalentToOneWay(t *testing.T) {
	f := func(seed int64) bool {
		a := MustNew(Config{Size: 512, LineSize: 16, Assoc: 1})
		rng := rand.New(rand.NewSource(seed))
		ref := newRefCache(512, 16, 1)
		for i := 0; i < 2000; i++ {
			addr := uint64(rng.Intn(2048))
			gotHit, _ := a.Access(addr, false)
			if gotHit != ref.access(addr) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// Property: total fills never exceed misses, and hits+misses == accesses.
func TestStatsInvariants(t *testing.T) {
	f := func(seed int64) bool {
		c := MustNew(Config{Size: 256, LineSize: 16, Assoc: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 5000; i++ {
			c.Access(uint64(rng.Intn(1024)), rng.Intn(4) == 0)
		}
		st := c.Stats()
		return st.Hits+st.Misses == st.Accesses && st.Fills <= st.Misses+1 &&
			st.Evictions <= st.Fills
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: higher associativity at equal capacity never increases misses
// for an LRU cache replaying the same (read-only) stream... not true in
// general (Belady anomalies are FIFO-only; LRU is a stack algorithm per
// set, not across geometry), so instead verify the classical stack
// property: a fully-associative LRU cache of larger capacity never misses
// on an access that a smaller one hits.
func TestLRUStackProperty(t *testing.T) {
	small := MustNew(Config{Size: 256, LineSize: 16, Assoc: FullyAssociative})
	big := MustNew(Config{Size: 1024, LineSize: 16, Assoc: FullyAssociative})
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 30000; i++ {
		addr := uint64(rng.Intn(8192))
		smallHit, _ := small.Access(addr, false)
		bigHit, _ := big.Access(addr, false)
		if smallHit && !bigHit {
			t.Fatalf("inclusion violated at access %d addr %#x", i, addr)
		}
	}
}

func BenchmarkDirectMappedAccess(b *testing.B) {
	c := MustNew(Config{Size: 4096, LineSize: 16, Assoc: 1})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], false)
	}
}

func Benchmark4WayAccess(b *testing.B) {
	c := MustNew(Config{Size: 4096, LineSize: 16, Assoc: 4})
	rng := rand.New(rand.NewSource(1))
	addrs := make([]uint64, 1<<16)
	for i := range addrs {
		addrs[i] = uint64(rng.Intn(1 << 20))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c.Access(addrs[i&(len(addrs)-1)], false)
	}
}

func TestResidentLines(t *testing.T) {
	c := MustNew(Config{Size: 64, LineSize: 16, Assoc: 2})
	if got := c.ResidentLines(); len(got) != 0 {
		t.Fatalf("empty cache has residents: %v", got)
	}
	c.Fill(0x00, false)
	c.Fill(0x40, false)
	got := c.ResidentLines()
	if len(got) != 2 {
		t.Fatalf("residents = %v", got)
	}
	want := map[uint64]bool{c.LineAddr(0x00): true, c.LineAddr(0x40): true}
	for _, la := range got {
		if !want[la] {
			t.Errorf("unexpected resident line %#x", la)
		}
	}
}
