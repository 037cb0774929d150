package stream_test

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"qurator/internal/evidence"
	"qurator/internal/ontology"
	"qurator/internal/stream"
)

// keyLog is a WindowJournal that records every committed key in commit
// order, with a short description of the window it was committed for.
type keyLog struct {
	mu   sync.Mutex
	keys []string
}

func (l *keyLog) Lookup(string) (stream.WindowResult, bool) { return stream.WindowResult{}, false }

func (l *keyLog) Commit(key string, res stream.WindowResult) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.keys = append(l.keys, fmt.Sprintf("%s size=%d decided=%d partial=%v late=%v kind=%q [%d,%d)",
		key, res.Size, len(res.Decisions), res.Partial, res.Late, res.Kind, res.Start, res.End))
	return nil
}

// keyItem is hit i with inline evidence; ms, when non-negative, is its
// q:ObservedAt event time.
func keyItem(i int, hr float64, ms int64) stream.Item {
	ev := map[evidence.Key]evidence.Value{
		ontology.HitRatio: evidence.Float(hr),
		ontology.Masses:   evidence.Int(int64(10 + i)),
	}
	if ms >= 0 {
		ev[ontology.ObservedAt] = evidence.Int(ms)
	}
	return stream.Item{ID: hit(i), Evidence: ev}
}

// TestWindowKeysStable pins the journal key of every window a set of
// scripted streams fires. A key is the identity under which a window's
// decisions are journaled; if a change to the windower altered it, a
// journal written before the change would no longer answer the same
// window afterwards, and a replayed stream would re-enact instead of
// replay — breaking exactly-once emission across an upgrade. The keys
// below are literal: any change to them is a journal format change.
func TestWindowKeysStable(t *testing.T) {
	const noTime = -1
	cases := []struct {
		name  string
		cfg   stream.Config
		items []stream.Item
		want  []string
	}{
		{
			// A full window, a duplicate refreshing the live window, a
			// superseding re-fire of an evicted item, and a partial flush.
			name: "count tumbling",
			cfg:  stream.Config{Window: 4},
			items: []stream.Item{
				keyItem(0, 0.9, noTime), keyItem(1, 0.2, noTime), keyItem(2, 0.8, noTime), keyItem(3, 0.1, noTime),
				keyItem(4, 0.7, noTime), keyItem(5, 0.6, noTime), keyItem(4, 0.3, noTime),
				keyItem(1, 0.95, noTime),
				keyItem(6, 0.5, noTime), keyItem(7, 0.4, noTime),
				keyItem(8, 0.9, noTime),
			},
			want: []string{
				`bc3e1a0a89cc0cf17a26a2d3682f1680581b95f30bfcfc78ecb3f15815986902 size=4 decided=4 partial=false late=false kind="" [0,0)`,
				`2346f7900da66032621e6c689ef4b48111a589577ff44528c6185878b78db389 size=4 decided=4 partial=false late=true kind="" [0,0)`,
				`9ed0cf4b64a69ba02670f66f7f8695e0e12ab5e733a45be3be3b4d676184b7a2 size=4 decided=4 partial=false late=false kind="" [0,0)`,
				`b6ea1015e5130ee2a257127926c31e4ebcb930443b905a75cb33505e8d9b6f55 size=1 decided=1 partial=true late=false kind="" [0,0)`,
			},
		},
		{
			name: "count sliding",
			cfg:  stream.Config{Window: 4, Slide: 2},
			items: []stream.Item{
				keyItem(0, 0.9, noTime), keyItem(1, 0.2, noTime), keyItem(2, 0.8, noTime), keyItem(3, 0.1, noTime),
				keyItem(4, 0.7, noTime), keyItem(5, 0.6, noTime), keyItem(6, 0.5, noTime), keyItem(7, 0.4, noTime),
				keyItem(8, 0.9, noTime),
			},
			want: []string{
				`bc3e1a0a89cc0cf17a26a2d3682f1680581b95f30bfcfc78ecb3f15815986902 size=4 decided=4 partial=false late=false kind="" [0,0)`,
				`5554a076310f28a32013d555c4e90e56347b2f2be9548a6b171116a14cdca371 size=4 decided=2 partial=false late=false kind="" [0,0)`,
				`e530a6b4cb1f07a639e22e926199fbdf0938e825ae2b0992bb7240ddec974d44 size=4 decided=2 partial=false late=false kind="" [0,0)`,
				`0ec1d57e0afba548c4ff1ff5330919ab9d44854c2f99ef1130af888dfbcfd2d5 size=3 decided=1 partial=true late=false kind="" [0,0)`,
			},
		},
		{
			// [0,100) fires on t=110; a new late item and a re-arrival each
			// supersede it; t=210 fires [100,200); [200,300) flushes.
			name: "event tumbling",
			cfg:  eventCfg(stream.Config{WindowDuration: 100 * time.Millisecond, AllowedLateness: time.Second}),
			items: []stream.Item{
				keyItem(0, 0.9, 0), keyItem(1, 0.2, 30), keyItem(2, 0.8, 60),
				keyItem(3, 0.1, 110), keyItem(4, 0.7, 150),
				keyItem(5, 0.6, 40),
				keyItem(1, 0.95, 30),
				keyItem(6, 0.5, 210),
			},
			want: []string{
				`a16b98e7910ad5422910994a3ed93f4b05a1a1a07981c75f1a863a1cd44337bf size=3 decided=3 partial=false late=false kind="tumbling" [0,100)`,
				`13e07e928d4673324043792b8f39fd47f13c2e2468fa1a660817a245874cf8fa size=4 decided=4 partial=false late=true kind="tumbling" [0,100)`,
				`f06ebc2010a013f2ae4e6417d33edb0c817403297ee0d5d018f88ab1d5765314 size=4 decided=4 partial=false late=true kind="tumbling" [0,100)`,
				`b90a7576a588e75327bd177a788318d34a1de63d7f46923bd5c957a2829cc141 size=2 decided=2 partial=false late=false kind="tumbling" [100,200)`,
				`9a44cf84d31a8c94d4add0290a4e20573f860248a9cea5d9abad4cce519c99f6 size=1 decided=1 partial=true late=false kind="tumbling" [200,300)`,
			},
		},
		{
			// 100ms windows sliding by 50ms, starting at the aligned -50.
			name: "event sliding",
			cfg: eventCfg(stream.Config{
				WindowDuration: 100 * time.Millisecond, SlideDuration: 50 * time.Millisecond,
				AllowedLateness: time.Second,
			}),
			items: []stream.Item{
				keyItem(0, 0.9, 10), keyItem(1, 0.2, 60), keyItem(2, 0.8, 120),
				keyItem(3, 0.1, 160),
				keyItem(4, 0.7, 70),
				keyItem(0, 0.3, 10),
				keyItem(5, 0.6, 210),
			},
			want: []string{
				`5a6baf008ffe71115f56dc4c1cb9f0d09b7c70f69456ff1a7b83f5ff73b0a109 size=1 decided=1 partial=false late=false kind="sliding" [-50,50)`,
				`c56b2d3b1038fcfa4bf48ab4d2413f94e483a3a6e2b3c8c18a9b32e1fb300925 size=2 decided=1 partial=false late=false kind="sliding" [0,100)`,
				`89b9258801291cf2951ff984674407a163c774c008989b85e6951dcf6ddeda0a size=2 decided=1 partial=false late=false kind="sliding" [50,150)`,
				`d624281ab3b70bccb5dfdfecdc94f93f84efbcf77016e3ae8c6119f9caab0fa7 size=3 decided=2 partial=false late=true kind="sliding" [0,100)`,
				`92bdb37645ed1948b25d9e9ab63abe2b49813ac0cb7663a932ef50916be0b990 size=3 decided=1 partial=false late=true kind="sliding" [50,150)`,
				`30b5a03c1200797a8edd534f2e51a12f3d426f4328debf6028a98a20c6c15200 size=1 decided=1 partial=false late=true kind="sliding" [-50,50)`,
				`c4ae7b95412b13c91118bc70df8ff915b8bec8aadd8eaf74b359430e2d11e4af size=3 decided=2 partial=false late=true kind="sliding" [0,100)`,
				`ff4bd39431a9b78f924fea99e783662d4f6a874e5e6282dee7c560866b78a3a2 size=2 decided=1 partial=false late=false kind="sliding" [100,200)`,
				`7870c8f3e37c6dd2f5b303ab12f971cef63506b237690bf2d1ae13aa26496164 size=2 decided=1 partial=true late=false kind="sliding" [150,250)`,
				`54d41a043eb53cdeb679c3283b3c1566056fb8f50a9297c43ab8c9adb6f61d89 size=1 decided=0 partial=true late=false kind="sliding" [200,300)`,
			},
		},
		{
			// Two sessions merged by a bridging item, fired by t=500; a late
			// item supersedes the merged session; [500,620) flushes.
			name: "session",
			cfg: eventCfg(stream.Config{
				SessionGap: 100 * time.Millisecond, MaxOutOfOrder: 200 * time.Millisecond,
				AllowedLateness: time.Second,
			}),
			items: []stream.Item{
				keyItem(0, 0.9, 0), keyItem(1, 0.2, 150), keyItem(2, 0.8, 90),
				keyItem(3, 0.1, 500), keyItem(4, 0.7, 520),
				keyItem(5, 0.6, 100),
			},
			want: []string{
				`44fb74691c683cabe4c94fa8853cdad462715c74d40bc1f5a47b9f1dcc6e6e39 size=3 decided=3 partial=false late=false kind="session" [0,250)`,
				`8444baeefd8664cc840e1d7220c1f7e5b9bf102d176622ceacc13c0eb5f1aa06 size=4 decided=4 partial=false late=true kind="session" [0,250)`,
				`97f0486105581cda3c25575a0c4be294adbc9e6a26e3d45cac98a2cebf29e454 size=2 decided=2 partial=true late=false kind="session" [500,620)`,
			},
		},
		{
			// Three sessions opened out of order — [300,400), [150,250),
			// [0,100) — merged by bridging items at 90 and 240: a merged
			// session lists its items session by session, earliest first.
			// t=800 fires it, a late item supersedes it, [800,920) flushes.
			name: "session out of order",
			cfg: eventCfg(stream.Config{
				SessionGap: 100 * time.Millisecond, MaxOutOfOrder: 400 * time.Millisecond,
				AllowedLateness: time.Second,
			}),
			items: []stream.Item{
				keyItem(0, 0.9, 300), keyItem(1, 0.2, 150), keyItem(2, 0.8, 0),
				keyItem(3, 0.1, 90), keyItem(4, 0.7, 240),
				keyItem(5, 0.6, 800), keyItem(6, 0.5, 820),
				keyItem(7, 0.4, 120),
			},
			want: []string{
				`712f4c4662525780e71652229e5a5ea6abbb0ba23af924f00f3eaeaa44426fa6 size=5 decided=5 partial=false late=false kind="session" [0,400)`,
				`eb5e97de85e26efaf9cb1dc8a1edc2e937ff2789af9e569e85902f3a8589e348 size=6 decided=6 partial=false late=true kind="session" [0,400)`,
				`785a8b87f53405a3502e9b67d7a6f0efc30fff22bf658801204f8d36e4568c43 size=2 decided=2 partial=true late=false kind="session" [800,920)`,
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			log := &keyLog{}
			tc.cfg.Journal = log
			enactItems(t, tc.cfg, tc.items)
			if len(log.keys) != len(tc.want) {
				t.Fatalf("%d windows journaled, want %d:\n%s", len(log.keys), len(tc.want), strings.Join(log.keys, "\n"))
			}
			for i, got := range log.keys {
				if got != tc.want[i] {
					t.Errorf("window %d journaled as\n  %s\nwant\n  %s", i, got, tc.want[i])
				}
			}
		})
	}
}
