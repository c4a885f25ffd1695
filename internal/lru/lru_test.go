package lru

import (
	"fmt"
	"sync"
	"testing"
)

func TestPutGetEviction(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("b", 2)
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("Get(a) = %d, %v", v, ok)
	}
	// "b" is now least recently used; inserting "c" evicts it.
	c.Put("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Error("b survived eviction")
	}
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Errorf("a lost: %d, %v", v, ok)
	}
	if c.Len() != 2 {
		t.Errorf("Len = %d", c.Len())
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Cap != 2 || st.Len != 2 {
		t.Errorf("stats = %+v", st)
	}
}

func TestPutReplaces(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	c.Put("a", 9)
	if c.Len() != 1 {
		t.Fatalf("Len = %d", c.Len())
	}
	if v, _ := c.Get("a"); v != 9 {
		t.Errorf("a = %d", v)
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("evictions = %d", st.Evictions)
	}
}

func TestRemove(t *testing.T) {
	c := New[string, int](2)
	c.Put("a", 1)
	if !c.Remove("a") || c.Remove("a") {
		t.Error("Remove accounting wrong")
	}
	if _, ok := c.Get("a"); ok {
		t.Error("a survived Remove")
	}
	if st := c.Stats(); st.Evictions != 0 {
		t.Errorf("Remove counted as eviction: %+v", st)
	}
}

func TestMinimumCapacity(t *testing.T) {
	c := New[int, int](0)
	c.Put(1, 1)
	c.Put(2, 2)
	if c.Len() != 1 || c.Cap() != 1 {
		t.Errorf("Len = %d, Cap = %d", c.Len(), c.Cap())
	}
}

func TestHitMissCounting(t *testing.T) {
	c := New[int, int](4)
	c.Put(1, 1)
	c.Get(1)
	c.Get(2)
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Errorf("stats = %+v", st)
	}
}

// TestEvictHookOrdering: a capacity eviction runs the locked hook before
// the unlocked one, for the same entry; Evict runs both exactly like a
// capacity eviction (without counting as one) and Remove runs neither.
// The locked hook's in-critical-section guarantee is what lets the
// serving layer register a retirement atomically with the removal.
func TestEvictHookOrdering(t *testing.T) {
	c := New[string, int](1)
	var order []string
	c.OnEvictLocked(func(k string, v int) { order = append(order, "locked:"+k) })
	c.OnEvict(func(k string, v int) { order = append(order, "evict:"+k) })

	c.Put("a", 1)
	c.Put("b", 2) // evicts a
	if len(order) != 2 || order[0] != "locked:a" || order[1] != "evict:a" {
		t.Fatalf("capacity eviction hooks = %v, want [locked:a evict:a]", order)
	}

	order = nil
	if !c.Evict("b") {
		t.Fatal("Evict(b) = false, want true")
	}
	if len(order) != 2 || order[0] != "locked:b" || order[1] != "evict:b" {
		t.Fatalf("Evict hooks = %v, want [locked:b evict:b]", order)
	}
	if c.Evict("b") {
		t.Error("Evict of an absent key reported true")
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Errorf("evictions = %d, want 1 (Evict is deliberate)", st.Evictions)
	}

	order = nil
	c.Put("c", 3)
	c.Remove("c")
	if len(order) != 0 {
		t.Errorf("Remove ran hooks: %v", order)
	}
}

// TestEvictLockedAtomicWithRemoval: while the locked hook runs, no other
// cache caller can observe the entry as gone — a concurrent Get blocks
// until the hook's critical section ends. This is the registration-gap
// regression: under the old hook placement a lookup could slip between
// the removal and the side-table registration.
func TestEvictLockedAtomicWithRemoval(t *testing.T) {
	c := New[string, int](1)
	inHook := make(chan struct{})
	release := make(chan struct{})
	registered := false
	c.OnEvictLocked(func(k string, v int) {
		close(inHook)
		<-release         // hold the critical section open
		registered = true // the "side table" write, inside the section
	})
	c.Put("a", 1)

	done := make(chan bool)
	go func() {
		c.Put("b", 2) // evicts a, parks in the locked hook
	}()
	<-inHook
	go func() {
		_, ok := c.Get("a")
		done <- ok
	}()
	select {
	case <-done:
		t.Fatal("Get returned while the locked eviction hook held the critical section")
	default:
	}
	close(release)
	if ok := <-done; ok {
		t.Error("Get(a) found the evicted entry")
	}
	if !registered {
		t.Error("Get unblocked before the locked hook finished registering")
	}
}

// TestRemoveFunc: the predicate sweep removes matching entries in one
// pass without touching hit/miss accounting, recency order or the
// eviction hooks.
func TestRemoveFunc(t *testing.T) {
	c := New[string, string](8)
	hooks := 0
	c.OnEvictLocked(func(string, string) { hooks++ })
	c.OnEvict(func(string, string) { hooks++ })
	c.Put("s1", "w1")
	c.Put("s2", "w2")
	c.Put("s3", "w1")
	c.Put("s4", "w2")
	before := c.Stats()

	if n := c.RemoveFunc(func(_, loc string) bool { return loc == "w1" }); n != 2 {
		t.Fatalf("RemoveFunc removed %d, want 2", n)
	}
	if hooks != 0 {
		t.Errorf("RemoveFunc ran %d eviction hooks, want 0", hooks)
	}
	after := c.Stats()
	if after.Hits != before.Hits || after.Misses != before.Misses || after.Evictions != before.Evictions {
		t.Errorf("RemoveFunc perturbed accounting: before %+v after %+v", before, after)
	}
	if after.Len != 2 {
		t.Errorf("Len = %d, want 2", after.Len)
	}
	for _, k := range []string{"s1", "s3"} {
		if _, ok := c.Get(k); ok {
			t.Errorf("%s survived the sweep", k)
		}
	}
	for _, k := range []string{"s2", "s4"} {
		if _, ok := c.Get(k); !ok {
			t.Errorf("%s was swept but points at w2", k)
		}
	}
	if n := c.RemoveFunc(func(string, string) bool { return false }); n != 0 {
		t.Errorf("no-match sweep removed %d", n)
	}
}

// TestConcurrent hammers one cache from many goroutines; correctness here
// is "no race, no panic, capacity respected" (run under -race).
func TestConcurrent(t *testing.T) {
	c := New[string, int](8)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				k := fmt.Sprintf("k%d", (g+i)%16)
				if _, ok := c.Get(k); !ok {
					c.Put(k, i)
				}
			}
		}(g)
	}
	wg.Wait()
	if c.Len() > 8 {
		t.Errorf("Len = %d exceeds capacity", c.Len())
	}
}
