/**
 * @file
 * Core identifier types and configuration enums for CubicleOS.
 */

#ifndef CUBICLEOS_CORE_IDS_H_
#define CUBICLEOS_CORE_IDS_H_

#include <cstdint>

#include "mem/page_meta.h" // Cid

namespace cubicleos::core {

// Re-export the cubicle-ID types so users can spell them core::Cid.
using cubicleos::Cid;
using cubicleos::kNoCubicle;

/** Window identifier, unique within a System. */
using Wid = uint32_t;

/** Sentinel for an invalid window. */
inline constexpr Wid kInvalidWindow = 0xFFFFFFFF;

/**
 * Maximum cubicles representable in a window ACL bitmask.
 *
 * With tag virtualisation (SystemConfig::virtualizeTags) the loader is
 * no longer bounded by the 16 hardware tags, so the ACL mask is a
 * 128-bit pair (core::AclMask) rather than a single machine word.
 */
inline constexpr int kMaxCubicles = 128;

/** Kind of a cubicle (paper §3). */
enum class CubicleKind : uint8_t {
    kIsolated, ///< own MPK key; all interactions cross-cubicle
    kShared,   ///< little-state component executing with caller privileges
};

/**
 * Isolation modes for the Fig. 6 ablation.
 *
 * Each mode adds one CubicleOS mechanism on top of the previous:
 * trampolines, then MPK enforcement, then window ACLs. The three
 * predicates below are the only place that ladder is spelled out; the
 * runtime asks them instead of comparing modes.
 */
enum class IsolationMode : uint8_t {
    kUnikraft, ///< baseline: direct calls, no protection
    kNoMpk,    ///< cross-cubicle trampolines, MPK checks disabled
    kNoAcl,    ///< MPK enforced, window ACLs treated as always open
    kFull,     ///< full CubicleOS
};

/**
 * Cross-cubicle calls switch stacks through a trampoline, and the
 * window API is live (in Unikraft it is not part of the build).
 */
constexpr bool hasTrampolines(IsolationMode m)
{
    return m >= IsolationMode::kNoMpk;
}

/**
 * Checked accesses are enforced by MPK tags: calls switch PKRU and
 * protection faults go to trap-and-map.
 */
constexpr bool enforcesMpk(IsolationMode m)
{
    return m >= IsolationMode::kNoAcl;
}

/** Trap-and-map grants a fault only through an open window ACL. */
constexpr bool enforcesAcls(IsolationMode m)
{
    return m >= IsolationMode::kFull;
}

/** Returns a human-readable isolation-mode name. */
const char *isolationModeName(IsolationMode mode);

} // namespace cubicleos::core

#endif // CUBICLEOS_CORE_IDS_H_
