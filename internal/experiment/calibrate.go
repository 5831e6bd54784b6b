package experiment

// Calibration reference
//
// Every absolute number in the regenerated tables traces back to one of the
// knobs below; the *relationships* between cells (the shapes the paper
// claims) come from the system structure, not from tuning.
//
// Network (the zero simnet.HierarchySpec, Fig. 2):
//
//	WAN one-way latency   100 ms   (paper: "100 ms latency each way")
//	WAN bandwidth         100 Mbit/s combined
//	LAN one-way latency   250 µs
//	server CPUs           2 slots  (dual-processor Pentium III; simnet.ServerCPUs)
//
// HTTP (Section 3.3; web.HandshakeBytes, web.RequestBytes,
// web.DefaultPageBytes, and web.DefaultOptions / rubis.DeployOptions for
// the servlet dispatch CPU, 2 ms Pet Store, 1 ms RUBiS):
//
//	keep-alive            off      => TCP handshake RTT + request RTT per page
//	                                  (the centralized config's +400 ms)
//
// RMI (rmi.DefaultOptions / rubis.DeployOptions for the rounds; the sizes
// and CPU costs are rmi.RequestBytes, rmi.ReplyBytes, rmi.LocalDispatch and
// rmi.MarshalCPU):
//
//	rounds per call       1.5      Pet Store (JBoss 2.4.4-era RMI with
//	                               ping/DGC traffic, ref [5] in the paper)
//	rounds per call       1.25     RUBiS (JBoss 3.0.3 / Jetty 4.1.0, leaner)
//	JNDI lookup           1 remote call, removed by EJBHomeFactory caching
//
// Container (container.MethodCPU, EntityLoadCPU, EntityStoreCPU,
// CacheHitCPU, JDBCRounds):
//
//	business method       400 µs   tx demarcation + interceptors
//	ejbLoad/ejbStore      300 µs   field marshalling on top of SQL cost
//	cache hit             150 µs   read-only bean / query-cache read
//	JDBC                  1 round trip per statement to the DB node
//
// Database (sqldb.Cost over its per-statement and per-row constants):
//
//	per statement         300 µs; scans 4 µs/row; writes 40 µs/row.
//	Utilization stays under ~5% in all runs (paper, Section 3.1).
//
// JMS (jms.PublishCPU, jms.DeliverCPU, Section 4.5):
//
//	publish               2 ms     local transactional enqueue (this is why
//	                               the async Commit costs more than a plain
//	                               write but far less than a blocking push)
//	MDB dispatch          200 µs
//
// Application page costs (petstore.DefaultPageCosts, rubis.DefaultPageCosts):
//
//	each page carries a CPU cost (creates server contention) and a non-CPU
//	latency (JSP pipeline, logging, connection handling). These are the only
//	values fitted to the paper — against the *centralized/local* row of each
//	table only. Every other cell in Tables 6-7 is model output.
//
// Only the RMI rounds and the dispatch CPU differ between the two stacks;
// every other value is a constant of the package that charges it, which the
// advisor (internal/planner) prices from too. Changing a knob changes the
// tables proportionally; the shape tests in
// shape_test.go pin the qualitative structure so recalibration cannot
// silently break the reproduction.
