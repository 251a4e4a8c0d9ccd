// Package anufs is a reproduction of "Handling Heterogeneity in Shared-Disk
// File Systems" (Changxun Wu and Randal Burns, SC'03): the ANU — adaptive,
// non-uniform randomization — load-placement and server-provisioning
// algorithm, the shared-disk metadata cluster it manages, the discrete-event
// simulator that evaluates it, and a harness that regenerates every figure
// in the paper's evaluation.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// cmd/anusim regenerates one figure at a chosen scale, cmd/expall all of
// them at full paper scale; cmd/bench is the fleet benchmark.
package anufs
