package web

import (
	"errors"
	"sync"
	"testing"
	"time"

	"wadeploy/internal/race"
	"wadeploy/internal/sim"
)

// zeroRequest reports whether r is a recycled, zeroed envelope.
func zeroRequest(r *Request) bool {
	return r.Page == "" && r.Params == nil && r.Session == nil && r.ClientNode == ""
}

// holdsOnly reports whether free keeps exactly the envelopes want, each
// once: taking len(want) hands out each of them, and the next take a new one.
// It empties the list.
func holdsOnly[T any](free *sim.Free[T], want ...*T) bool {
	left := map[*T]bool{}
	for _, w := range want {
		left[w] = true
	}
	for range want {
		v := free.Take(*new(T))
		if !left[v] {
			return false
		}
		delete(left, v)
	}
	v := free.Take(*new(T))
	for _, w := range want {
		if v == w {
			return false
		}
	}
	return true
}

// TestEnvelopeLifetime pins the Request envelope's contract: valid until the
// servlet returns and zeroed after, one per request in flight on a
// container, given back by a process Env.Close unwinds, and given back once
// by a servlet that fails.
func TestEnvelopeLifetime(t *testing.T) {
	t.Run("zeroed after return", func(t *testing.T) {
		env := sim.NewEnv(1)
		c, _ := NewContainer(testNet(t, env), "server", DefaultOptions)
		var kept *Request
		c.Handle("main", func(p *sim.Proc, r *Request) (*Response, error) {
			if r.Page != "main" || r.Param("k") != "v" || r.ClientNode != "client" {
				t.Errorf("servlet sees %+v", *r)
			}
			kept = r
			return nil, nil
		})
		env.Spawn("client", func(p *sim.Proc) {
			if _, _, err := c.Get(p, "client", "main", map[string]string{"k": "v"}, nil); err != nil {
				t.Error(err)
			}
		})
		env.RunAll()
		if kept == nil || !zeroRequest(kept) || !holdsOnly(&c.reqs, kept) {
			t.Fatalf("kept envelope %+v, want it zeroed and the only one free", kept)
		}
	})

	t.Run("nested three deep", func(t *testing.T) {
		env := sim.NewEnv(1)
		c, _ := NewContainer(testNet(t, env), "server", DefaultOptions)
		pages := []string{"p1", "p2", "p3"}
		inFlight, seen := map[*Request]bool{}, []*Request{}
		for depth, page := range pages {
			c.Handle(page, func(p *sim.Proc, r *Request) (*Response, error) {
				if inFlight[r] {
					t.Errorf("envelope %p handed to a nested request while in flight", r)
				}
				inFlight[r], seen = true, append(seen, r)
				if depth+1 < len(pages) {
					// An include: the servlet requests the next page itself.
					if _, _, err := c.Get(p, "server", pages[depth+1], map[string]string{"depth": page}, nil); err != nil {
						return nil, err
					}
				}
				if r.Page != page || r.ClientNode == "" {
					t.Errorf("%s sees %+v after its inner request returned", page, *r)
				}
				delete(inFlight, r)
				return nil, nil
			})
		}
		env.Spawn("client", func(p *sim.Proc) {
			if _, _, err := c.Get(p, "client", "p1", nil, nil); err != nil {
				t.Error(err)
			}
		})
		env.RunAll()
		if len(seen) != 3 || !holdsOnly(&c.reqs, seen...) {
			t.Fatalf("%d nested requests; want 3 whose three envelopes are all free", len(seen))
		}
	})

	t.Run("killed by Close", func(t *testing.T) {
		env := sim.NewEnv(1)
		c, _ := NewContainer(testNet(t, env), "server", DefaultOptions)
		var killed *Request
		c.Handle("slow", func(p *sim.Proc, r *Request) (*Response, error) { killed = r; p.Sleep(time.Hour); return nil, nil })
		env.Spawn("client", func(p *sim.Proc) {
			_, _, _ = c.Get(p, "client", "slow", nil, nil)
			t.Error("a killed request returned")
		})
		env.Run(time.Minute)
		env.Close()
		if killed == nil || !zeroRequest(killed) || !holdsOnly(&c.reqs, killed) {
			t.Fatal("the killed request's envelope is not back, zeroed, as the only free one")
		}
	})

	t.Run("failed servlet releases once", func(t *testing.T) {
		env := sim.NewEnv(1)
		c, _ := NewContainer(testNet(t, env), "server", DefaultOptions)
		boom := errors.New("boom")
		var used []*Request
		c.Handle("bad", func(p *sim.Proc, r *Request) (*Response, error) {
			if len(used) == 0 || used[len(used)-1] != r {
				used = append(used, r)
			}
			return nil, boom
		})
		env.Spawn("client", func(p *sim.Proc) {
			for i := 0; i < 5; i++ {
				if _, _, err := c.Get(p, "client", "bad", nil, nil); !errors.Is(err, boom) {
					t.Errorf("err = %v, want boom", err)
				}
			}
		})
		env.RunAll()
		if len(used) != 1 || !holdsOnly(&c.reqs, used[0]) {
			t.Fatalf("five failed requests used %d envelopes, want 1 that is free once", len(used))
		}
	})
}

// One *Response value may be returned by the servlets of any number of
// containers, in simulations running in parallel: the container fills a
// zero field's default into a copy and never writes the shared value. Run
// under -race, a write shows as a data race; without it, as a changed value.
func TestSharedResponseNeverWritten(t *testing.T) {
	shared := &Response{Bytes: 3 * 1024} // Status left zero: the default applies
	var wg sync.WaitGroup
	for seed := int64(1); seed <= 2; seed++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			env := sim.NewEnv(seed)
			c, err := NewContainer(testNet(t, env), "server", DefaultOptions)
			if err != nil {
				t.Error(err)
				return
			}
			c.Handle("page", func(p *sim.Proc, r *Request) (*Response, error) { return shared, nil })
			env.Spawn("client", func(p *sim.Proc) {
				for i := 0; i < 50; i++ {
					resp, _, err := c.Get(p, "client", "page", nil, nil)
					if err != nil || resp.Status != 200 || resp.Bytes != 3*1024 {
						t.Errorf("resp = %+v, err %v; want 200 and 3 KB", resp, err)
						return
					}
				}
			})
			env.RunAll()
		}()
	}
	wg.Wait()
	if *shared != (Response{Bytes: 3 * 1024}) {
		t.Fatalf("shared response written: %+v", *shared)
	}
}

// A page request whose servlet returns a shared response, or none, allocates
// nothing once the client's connection is held: the request envelope is
// recycled and the defaults live on the container.
func TestGetSharedResponseAllocs(t *testing.T) {
	if race.Enabled {
		t.Skip("race instrumentation allocates; alloc guard runs without -race")
	}
	env := sim.NewEnv(1)
	c, _ := NewContainer(testNet(t, env), "server", DefaultOptions)
	shared := &Response{Status: 200, Bytes: 4 * 1024}
	c.Handle("shared", func(p *sim.Proc, r *Request) (*Response, error) { return shared, nil })
	c.Handle("default", func(p *sim.Proc, r *Request) (*Response, error) { return nil, nil })
	allocs := map[string]float64{}
	env.Spawn("client", func(p *sim.Proc) {
		for _, page := range []string{"shared", "default"} {
			get := func() {
				if _, _, err := c.Get(p, "client", page, nil, nil); err != nil {
					t.Error(err)
				}
			}
			for i := 0; i < 16; i++ {
				get()
			}
			allocs[page] = testing.AllocsPerRun(100, get)
		}
	})
	env.RunAll()
	env.Close()
	if allocs["shared"] > 0 || allocs["default"] > 0 {
		t.Errorf("Get allocates %.2f with a shared response, %.2f with none; want 0 and 0", allocs["shared"], allocs["default"])
	}
}
