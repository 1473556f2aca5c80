package dict_test

import (
	"sync"
	"testing"

	"intensional/internal/rules"
)

// TestDomainCachesConcurrent hammers SnapToObserved, whose first calls
// build the relations' column indexes, from many goroutines — the access
// pattern of concurrent queries sharing one published dictionary. Run
// under -race.
func TestDomainCachesConcurrent(t *testing.T) {
	d := shipDict(t)
	attrs := []rules.AttrRef{
		rules.Attr("CLASS", "Displacement"),
		rules.Attr("CLASS", "Type"),
		rules.Attr("SUBMARINE", "Class"),
		rules.Attr("SONAR", "Sonar"),
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := attrs[(g+i)%len(attrs)]
				iv, ok, err := d.SnapToObserved(a, rules.Everything())
				if err != nil || !ok {
					t.Errorf("active domain of %s: ok=%v err=%v", a, ok, err)
					return
				}
				if again, ok, err := d.SnapToObserved(a, iv); err != nil || !ok || again.String() != iv.String() {
					t.Errorf("SnapToObserved(%s, %s) = %s: ok=%v err=%v", a, iv, again, ok, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
