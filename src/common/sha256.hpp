// SHA-256 (FIPS 180-4) — the content hash behind the sweep service's
// result cache.
//
// Cache keys must be collision-resistant across millions of memoized
// experiment specs and stable across platforms and releases, which rules
// out std::hash (unspecified) and 64-bit FNV (birthday collisions at
// cache sizes we actually expect).  No external dependency: the block
// compression is the portable reference construction, and on x86 CPUs
// whose CPUID reports the SHA extensions it runs on sha256rnds2/
// sha256msg1/sha256msg2 instead.  The choice is made once per process and
// changes no digest; only the one function that holds the intrinsics is
// compiled for those instructions, so no other code sees another ISA.
#pragma once

#include <string>
#include <string_view>

namespace mot3d {

/// Lowercase hex digest (64 chars) of `data`.
std::string sha256_hex(std::string_view data);

namespace detail {

/// The same digest from the portable compression only: the reference the
/// hardware path is tested against.
std::string sha256_hex_portable(std::string_view data);

/// Whether sha256_hex compresses with the x86 SHA extensions here.
bool sha256_uses_hardware();

}  // namespace detail

}  // namespace mot3d
