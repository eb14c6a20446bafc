// Disk cache for the testbed's kernel-profiling stage.
//
// build_testbed() spends nearly all of its time running the instrumented
// C3I kernels (threat pair scans, terrain ring clipping) to produce the
// workload profiles; every bench binary pays that cost on startup even
// though the profiles are a pure function of the generated scenarios.
// load_or_build_testbed() persists the profiles in a small binary file
// keyed by a fingerprint of the scenario contents, a format version and
// the build's code identity (a configure-time hash of the kernel and
// cost-model sources under src/c3i/ and src/platforms/), so repeat runs
// of one build assemble the testbed in milliseconds while a build with
// edited kernels misses and re-profiles. A stale or corrupt
// cache file — fingerprint mismatch, short read, wrong magic, payload
// checksum mismatch — is ignored and rewritten; the cache can never change
// results, only skip recompute.
//
// Cache location: $TC3I_TESTBED_CACHE names the directory. Unset, it
// defaults to the system temp directory; set to "0" or "off", caching is
// disabled entirely (every call profiles the kernels afresh).
#pragma once

#include <cstdint>

#include "platforms/experiment.hpp"

namespace tc3i::platforms {

/// build_testbed() with the kernel-profiling stage served from (and saved
/// to) the on-disk cache when possible. Always returns an identical
/// Testbed to build_testbed().
[[nodiscard]] Testbed load_or_build_testbed();

/// This build's code identity (see above).
[[nodiscard]] std::uint64_t code_identity();

/// load_or_build_testbed() as a build with `identity` would run it: the
/// cache key uses `identity` in place of code_identity().
[[nodiscard]] Testbed load_or_build_testbed(std::uint64_t identity);

}  // namespace tc3i::platforms
