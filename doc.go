// Package wadeploy is a from-scratch Go reproduction of "Efficiently
// Distributing Component-based Applications Across Wide-Area Environments"
// (Llambiri, Totok, Karamcheti; ICDCS 2003).
//
// The repository builds every layer of the paper's system as a library:
//
//   - internal/sim — deterministic discrete-event simulation engine;
//   - internal/simnet — the Fig. 2 wide-area topology (100 ms/way WAN);
//   - internal/sqldb — an embedded relational database with a SQL subset;
//   - internal/rmi, internal/jms, internal/web — RMI, messaging and servlet
//     substrates with calibrated cost models;
//   - internal/container — an EJB-style component container: session beans,
//     entity beans, read-only replicas, query caches, update propagation;
//   - internal/core — the paper's contribution: placement policies (the
//     five incremental distribution configurations are five named ones),
//     design-rule validation, and automated pattern wiring from extended
//     deployment descriptors (Section 5);
//   - internal/petstore, internal/rubis — the two applications under test;
//   - internal/workload, internal/experiment — the Section 3 methodology and
//     the Table 6/7, Figure 7/8 harness.
//
// Regenerate the evaluation with:
//
//	go run ./cmd/wadeploy all
//
// BENCHMARK.json and bench/ define and measure the repository's performance;
// ablations of the design choices (stub caching, RMI round factor, sync vs
// async propagation) are go test benchmarks beside the code they vary.
package wadeploy
