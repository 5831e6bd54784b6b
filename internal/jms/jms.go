// Package jms models a publish/subscribe messaging provider (JMS topics plus
// message-driven-bean delivery) over the simulated network.
//
// In the paper's final configuration (Section 4.5), read-write entity beans
// publish updates to a local topic; message-driven-bean façades on the edge
// servers subscribe and apply the updates to read-only beans and query
// caches. The writer never blocks on WAN delivery — Publish charges only the
// local publish cost and returns, while deliveries run asynchronously with
// per-subscription FIFO ordering.
//
// Each (message, subscription) pair travels as a delivery record: Publish
// fills one in, the record is the arrival event (and, with redelivery
// armed, each re-attempt's event), and the MDB process it starts takes its
// fields and hands it back to the Provider's free list on its first step. A
// dropped or dead-lettered delivery hands its record back at once, and a
// Message goes back to a list of its own when its last delivery ends. Both
// are made only when their list is empty, and an MDB process reuses a
// returned one's Proc, so a steady publish allocates nothing.
package jms

import (
	"errors"
	"fmt"
	"time"

	"wadeploy/internal/metrics"
	"wadeploy/internal/sim"
	"wadeploy/internal/simnet"
	"wadeploy/internal/trace"
)

// ErrNoSuchTopic is returned when publishing to an undeclared topic.
var ErrNoSuchTopic = errors.New("jms: no such topic")

// Message is one published message.
type Message struct {
	Topic       string
	Body        any
	Bytes       int
	PublishedAt time.Duration // virtual publish time

	pending int // deliveries not yet ended, and Publish while it runs
}

// Subscriber handles one delivered message on the subscriber's node. It runs
// in its own process (the MDB's onMessage) and should charge its own CPU. It
// must not keep msg or its body after it returns: once the message's last
// delivery ends, the Provider reuses the Message and releases the body.
type Subscriber func(p *sim.Proc, msg *Message)

// The messaging cost model of a persistent JMS provider of the paper's era:
// a publish is a local transactional enqueue (milliseconds), delivery
// dispatch is cheap.
const (
	// PublishCPU is the publisher-side cost of a publish call: message
	// marshalling plus the (transactional) handoff to the broker.
	PublishCPU = 2 * time.Millisecond

	// DeliverCPU is charged on the subscriber node when a message is
	// dispatched into an MDB, before the subscriber function runs.
	DeliverCPU = 200 * time.Microsecond

	// MessageBytes is the default payload size.
	MessageBytes = 1024
)

// The redelivery policy NewProvider's redeliver arms, which makes delivery
// at-least-once across failures: a delivery that fails because the
// subscriber is unreachable (or the message is lost to a lossy link) is
// re-attempted every redeliveryDelay until it lands or redeliveryAttempts
// (the first included) is reached, at which point it is counted as a dead
// letter. Redelivered messages may arrive out of publish order, exactly like
// a real provider's redelivery queue.
const (
	redeliveryAttempts = 6
	redeliveryDelay    = 5 * time.Second
)

type subscription struct {
	node  string
	name  string
	proc  string // the delivery process's name, "jms:" + name
	fn    Subscriber
	route *simnet.Route // broker -> subscriber
	// lastArrival enforces per-subscription FIFO delivery.
	lastArrival time.Duration
}

// Topic is a named pub/sub channel.
type Topic struct {
	name string
	subs []*subscription

	mPub *metrics.Counter
	mDel *metrics.Counter
}

// Provider is a JMS broker bound to a node of the network.
type Provider struct {
	env    *sim.Env
	net    *simnet.Network
	node   string
	topics map[string]*Topic

	mPub   *metrics.Counter
	mDel   *metrics.Counter
	mLag   *metrics.Histogram
	pubVec *metrics.CounterVec
	delVec *metrics.CounterVec

	// Registered only when redelivery is armed, so redelivery-free runs
	// export byte-identical metric snapshots; nil otherwise.
	mRedeliver  *metrics.Counter
	mDeadLetter *metrics.Counter

	dels sim.Free[delivery] // records of no delivery in flight (Reuse/Keep)
	msgs sim.Free[Message]  // messages with no delivery left
}

// NewProvider creates a broker on node. With redeliver a failed delivery is
// re-attempted (see redeliveryAttempts); without it, it is dropped.
func NewProvider(net *simnet.Network, node string, redeliver bool) (*Provider, error) {
	if net.Node(node) == nil {
		return nil, fmt.Errorf("jms: no such node %s", node)
	}
	reg := net.Env().Metrics()
	pr := &Provider{
		env:    net.Env(),
		net:    net,
		node:   node,
		topics: make(map[string]*Topic),
		mPub:   reg.Counter("jms_published_total"),
		mDel:   reg.Counter("jms_delivered_total"),
		mLag:   reg.Histogram("jms_delivery_lag_ns"),
		pubVec: reg.CounterVec("jms_published_total", "topic"),
		delVec: reg.CounterVec("jms_delivered_total", "topic"),
	}
	if redeliver {
		pr.mRedeliver = reg.Counter("jms_redeliveries_total")
		pr.mDeadLetter = reg.Counter("jms_deadletters_total")
	}
	return pr, nil
}

// CreateTopic declares a topic; declaring an existing topic is a no-op.
func (pr *Provider) CreateTopic(name string) *Topic {
	if t, ok := pr.topics[name]; ok {
		return t
	}
	t := &Topic{name: name, mPub: pr.pubVec.With(name), mDel: pr.delVec.With(name)}
	pr.topics[name] = t
	return t
}

// Subscribe registers fn (named, for diagnostics) on node for the topic.
func (pr *Provider) Subscribe(topic, node, name string, fn Subscriber) error {
	t, ok := pr.topics[topic]
	if !ok {
		return fmt.Errorf("jms: subscribe %s: %w", topic, ErrNoSuchTopic)
	}
	if pr.net.Node(node) == nil {
		return fmt.Errorf("jms: subscribe %s: no such node %s", topic, node)
	}
	t.subs = append(t.subs, &subscription{node: node, name: name, proc: "jms:" + name, fn: fn, route: pr.net.Route(pr.node, node)})
	return nil
}

// Publish sends body from a publisher running on fromNode to all subscribers
// of topic. The caller blocks only for the local publish cost (and the hop
// to the broker if the broker is remote — in the paper's deployment the
// topic is local to the writers); deliveries are scheduled asynchronously.
// Unreachable subscribers are skipped: messages to them are dropped,
// mirroring a WAN partition. Once Publish returns nil, body is the
// Provider's: its Release method, if any, is called after the last delivery.
func (pr *Provider) Publish(p *sim.Proc, fromNode, topic string, body any, bytes int) error {
	t, ok := pr.topics[topic]
	if !ok {
		return fmt.Errorf("jms: publish %s: %w", topic, ErrNoSuchTopic)
	}
	if bytes <= 0 {
		bytes = MessageBytes
	}
	p.Sleep(PublishCPU)
	if err := pr.net.Transfer(p, fromNode, pr.node, bytes); err != nil {
		return fmt.Errorf("jms: publish %s: %w", topic, err)
	}
	// One use more than deliveries, Publish's own: a delivery may end at once.
	msg := pr.msgs.Take(Message{Topic: topic, Body: body, Bytes: bytes, PublishedAt: pr.env.Now(), pending: len(t.subs) + 1})
	pr.mPub.Inc()
	t.mPub.Inc()
	for _, sub := range t.subs {
		d := pr.dels.Reuse()
		if d == nil {
			d = &delivery{pr: pr}
			d.run = d.start
		}
		// Each subscription gets its own captured context, so a traced
		// publish stays open until every delivery (or redelivery chain)
		// lands, is dropped, or dead-letters.
		d.t, d.sub, d.msg, d.ctx = t, sub, msg, trace.Capture(p)
		d.try(1)
	}
	pr.end(msg)
	return nil
}

// end ends one use of msg; after the last, msg and its body are released.
func (pr *Provider) end(msg *Message) {
	if msg.pending--; msg.pending == 0 {
		if b, ok := msg.Body.(interface{ Release() }); ok {
			b.Release()
		}
		pr.msgs.Put(msg)
	}
}

// delivery is one message on its way to one subscription. It is the event
// of its arrival, or of its next attempt when retry is set, and run, bound
// when the record is made, is the body of the process the arrival starts.
type delivery struct {
	pr      *Provider
	t       *Topic
	sub     *subscription
	msg     *Message
	ctx     trace.Ctx
	attempt int
	retry   bool
	run     func(*sim.Proc)
}

// release clears d's delivery and gives it back to the Provider.
func (d *delivery) release() {
	*d = delivery{pr: d.pr, run: d.run}
	d.pr.dels.Keep(d)
}

// try schedules the given attempt of d. A failed attempt is dropped
// (at-most-once, the historical behavior) unless redelivery is armed, in
// which case it is re-attempted up to the policy's cap and then counted as
// a dead letter.
func (d *delivery) try(attempt int) {
	pr, sub := d.pr, d.sub
	d.attempt = attempt
	delay, err := sub.route.Delay(d.msg.Bytes)
	if err != nil {
		redeliver := pr.mRedeliver != nil
		if redeliver && attempt < redeliveryAttempts {
			pr.mRedeliver.Inc()
			d.retry = true
			pr.env.AfterTask(redeliveryDelay, d)
			return
		}
		// Partitioned subscriber with no attempt left: drop
		// (at-most-once across failures) or dead-letter.
		if redeliver {
			pr.mDeadLetter.Inc()
		}
		d.ctx.Drop()
		pr.end(d.msg)
		d.release()
		return
	}
	arrival := pr.env.Now() + delay
	if arrival < sub.lastArrival {
		arrival = sub.lastArrival // FIFO per subscription
	}
	sub.lastArrival = arrival
	d.retry = false
	pr.env.AtTask(arrival, d)
}

// Fire re-attempts a failed delivery or, on arrival, starts the MDB process.
func (d *delivery) Fire(e *sim.Env) {
	if d.retry {
		d.try(d.attempt + 1)
		return
	}
	e.Spawn(d.sub.proc, d.run)
}

// start is the MDB process: it takes the delivery off d, releases d, and
// runs the subscriber.
func (d *delivery) start(dp *sim.Proc) {
	pr, t, sub, msg, ctx := d.pr, d.t, d.sub, d.msg, d.ctx
	// Redelivered messages carry the retry cause so the delivery tail shows
	// up as retry/backoff time in the blame decomposition.
	cause := trace.CauseService
	if d.attempt > 1 {
		cause = trace.CauseRetry
	}
	d.release()
	defer trace.Adoptf(dp, ctx, "jms", sub.node, cause, "deliver ", sub.name, "")()
	dp.Sleep(DeliverCPU)
	pr.mDel.Inc()
	t.mDel.Inc()
	pr.mLag.Observe(dp.Now() - msg.PublishedAt)
	sub.fn(dp, msg)
	pr.end(msg)
}
