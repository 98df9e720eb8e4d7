package workload

import (
	"testing"
	"time"
)

// BenchmarkParseViewEvent times parseViewEvent on 20 000 generated ad events
// split by verdict, so that both sides of the byte search in front of the
// walker show on their own: /view is the kept third, which pays for the
// search on top of the walk, and /other the clicks and purchases, which the
// search drops before the walk. ns/doc divides by the documents parsed.
func BenchmarkParseViewEvent(b *testing.B) {
	y := NewYahoo(DefaultYahooConfig())
	var views, others [][]byte
	for _, ev := range y.Gen(0, epoch, epoch+int64(2*time.Second)) {
		if _, _, kept := parseViewEvent(ev.Payload); kept {
			views = append(views, ev.Payload)
		} else {
			others = append(others, ev.Payload)
		}
	}
	for _, c := range []struct {
		name string
		docs [][]byte
		kept bool
	}{
		{"view", views, true},
		{"other", others, false},
	} {
		b.Run(c.name, func(b *testing.B) {
			kept := 0
			for i := 0; i < b.N; i++ {
				for _, doc := range c.docs {
					if _, _, ok := parseViewEvent(doc); ok {
						kept++
					}
				}
			}
			want := 0
			if c.kept {
				want = b.N * len(c.docs)
			}
			if kept != want {
				b.Fatalf("kept %d of %d parses, want %d", kept, b.N*len(c.docs), want)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(c.docs)), "ns/doc")
		})
	}
}
