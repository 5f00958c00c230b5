// Closed-form bounds from the paper, used by tests (the implementation must
// not exceed them) and by benches (measured-vs-predicted columns).
#pragma once

#include <cstdint>

namespace gq {

// Lemma 2.2: iterations of Algorithm 1 satisfy t <= log_{7/4}(4/eps) + 2.
[[nodiscard]] double phase1_iteration_bound(double eps);

// Lemma 2.12: iterations of Algorithm 2 satisfy
// t <= log_{11/8}(1/(4 eps)) + log2(log4 n).
[[nodiscard]] double phase2_iteration_bound(double eps, std::uint32_t n);

// Theorem 1.3: any algorithm using fewer than max(0.5*loglog n, log4(8/eps))
// rounds fails with probability >= 1/3.
[[nodiscard]] double lower_bound_rounds(double eps, std::uint64_t n);

// Engineering floor on eps below which the tournament pipeline's
// concentration is no longer trustworthy at practical n and the library
// falls back to the exact algorithm (Theorem 1.2's bootstrap route).  The
// paper's asymptotic floor is Omega(n^-0.096) (Theorem 2.1).  The floor
// here, max(2 n^(-1/3), 8/n) capped at 1/4, has empirically calibrated
// constants; theory_bounds.cpp names the regime behind each term.
[[nodiscard]] double eps_tournament_floor(std::uint32_t n);

// Section 5.1: per-iteration pull fan-out k = numerator/(1-mu) *
// ln(numerator/(1-mu)) + 1 guaranteeing enough good pulls w.h.p.
[[nodiscard]] std::uint32_t robust_pull_count(double mu, double numerator);

}  // namespace gq
