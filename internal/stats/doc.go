// Package stats provides the statistical machinery used throughout the
// reproduction, mirroring the paper's evaluation methodology (Section
// IV-B): streaming moment accumulators, quantile estimation over
// log-scaled histograms, and ordinary least squares regression with
// R-squared and residual extraction (the Fig. 2 / Table II fit).
//
// Key entry points:
//
//   - FitLinear(x, y) — OLS fit; LinearFit carries Slope, Intercept,
//     R2, and Residuals (Fig. 2 regresses RPS_obsv against RPS_real).
//   - NewHistogram — log-bucketed latency histogram with Quantile; the
//     load generator's p99 comes from here.
//   - Online — Welford streaming mean/variance. Eq. 2's E[dt^2] -
//     E[dt]^2 over the eBPF side's in-map sums is computed once, in
//     probes.DeltaSnapshot.VarianceUS2.
//   - Mean, Quantile(s), Normalize(ByMax) — small helpers the
//     renderers and tests share.
//
// Everything here is pure computation: no simulation state, safe for
// concurrent use on distinct data.
package stats
