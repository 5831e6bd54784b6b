// Custom application: build your own component-based app on the container
// and core APIs, and let the Section 5 extended-descriptor automation wire
// the wide-area caching for you.
//
// The app is a small news site: an Article entity on the main server, a
// servlet that renders articles, and an editor that updates them. The
// extended deployment descriptor declares a read-only Article replica with
// asynchronous push refresh and an edge ArticleFacade that serves fetch from
// it; core.AutoWire materializes the replicas, updater façades, JMS topic,
// MDB subscribers and edge façades — no hand-written update machinery.
package main

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"wadeploy/internal/container"
	"wadeploy/internal/core"
	"wadeploy/internal/sim"
	"wadeploy/internal/sqldb"
	"wadeploy/internal/web"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "custom:", err)
		os.Exit(1)
	}
}

func run() error {
	env := sim.NewEnv(7)
	d, err := core.NewPaperDeployment(env, core.DefaultOptions())
	if err != nil {
		return err
	}

	// Schema and data.
	if _, err := d.DB.Exec(`CREATE TABLE articles (id INT PRIMARY KEY, headline TEXT NOT NULL, body TEXT, version INT NOT NULL)`); err != nil {
		return err
	}
	for i := 1; i <= 20; i++ {
		if _, err := d.DB.Exec(`INSERT INTO articles VALUES (?, ?, ?, 1)`,
			sqldb.Int(int64(i)), sqldb.Str(fmt.Sprintf("Headline %d", i)), sqldb.Str("body text")); err != nil {
			return err
		}
	}

	// The read-write entity bean lives with the database.
	articles, err := container.DeployRWEntity(d.Main, "Article", "articles", "id")
	if err != nil {
		return err
	}
	d.RegisterRW(articles)

	// A façade co-located with the entity serves replica refreshes (the
	// design rules allow remote access only through façades).
	if _, err := container.DeployStateless(d.Main, "ArticleFacade", map[string]container.Method{
		"fetch": func(p *sim.Proc, inv *container.Invocation) (any, error) {
			row, err := articles.Load(p, inv.Args[0])
			return container.Reply(inv, row, err)
		},
	}); err != nil {
		return err
	}

	// Declarative wide-area caching: a replica entry, and the edge façade
	// whose fetch reads it.
	wiring, err := core.AutoWire(d, &container.ExtendedDescriptor{
		Topic: "article-updates",
		Replicas: []container.ReplicaSpec{
			{Bean: "Article", Update: container.Propagation{Async: true}},
		},
		EdgeFacades: []container.EdgeFacadeSpec{{Bean: "ArticleFacade", Methods: []container.EdgeMethodSpec{
			container.FromReplicas("fetch", func(p *sim.Proc, m *container.EdgeMethod, inv *container.Invocation) (any, error) {
				row, err := m.Replicas[0].Get(p, inv.Args[0])
				return container.Reply(inv, row, err)
			}, "Article"),
		}}},
	}, core.WireOptions{
		FetchFor: func(server *container.Server, rwBean string) container.FetchFunc {
			return container.FetchFrom(server, d.Main.Name(), "ArticleFacade", "fetch")
		},
	}, d.Edges...)
	if err != nil {
		return err
	}

	// A servlet on each edge server renders articles through its edge
	// ArticleFacade.
	for _, edge := range d.Edges {
		edge := edge
		edge.Web().Handle("article", func(p *sim.Proc, r *web.Request) (*web.Response, error) {
			id, _ := strconv.ParseInt(r.Param("id"), 10, 64)
			stub, err := d.FacadeStub(p, edge, "ArticleFacade")
			if err != nil {
				return nil, err
			}
			v, err := stub.Invoke(p, "fetch", sqldb.Int(id))
			if err != nil {
				return nil, err
			}
			st := *v.(*container.Row)
			edge.Compute(p, 2*time.Millisecond)
			return &web.Response{Bytes: len(st.Get("body").AsString()) + 2048}, nil
		})
	}

	edge := d.Edges[0]
	client := d.ClientNodeOf(edge.Name())
	var failed error
	env.Spawn("demo", func(p *sim.Proc) {
		// First read: cold miss fetches across the WAN.
		cold := timeGet(p, edge, client, &failed)
		// Second read: local replica hit.
		warm := timeGet(p, edge, client, &failed)
		// Editor updates the article on the main server; the writer does
		// not block on WAN pushes (async mode).
		wStart := p.Now()
		if _, err := articles.UpdateFields(p, sqldb.Int(1), container.State{
			"headline": sqldb.Str("Updated headline"),
			"version":  sqldb.Int(2),
		}); err != nil {
			failed = err
			return
		}
		writeCost := p.Now() - wStart
		fmt.Printf("cold read  %8v\nwarm read  %8v\nwrite      %8v (async: no WAN blocking)\n",
			cold.Round(time.Millisecond), warm.Round(time.Millisecond), writeCost.Round(time.Millisecond))
		// Give the JMS push time to arrive, then confirm freshness.
		p.Sleep(time.Second)
		st, err := wiring.Replica(edge.Name(), "Article").Get(p, sqldb.Int(1))
		if err != nil {
			failed = err
			return
		}
		fmt.Printf("replica now: %q (version %d)\n", st.Get("headline").AsString(), st.Get("version").AsInt())
	})
	env.RunAll()
	env.Close()
	return failed
}

// timeGet requests article 1 from client, the edge's own client group, and
// returns the response time.
func timeGet(p *sim.Proc, edge *container.Server, client string, failed *error) time.Duration {
	_, rt, err := edge.Web().Get(p, client, "article", map[string]string{"id": "1"}, nil)
	if err != nil {
		*failed = err
	}
	return rt
}
