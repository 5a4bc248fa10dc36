/**
 * @file
 * Version constants folded into persistent-store keys. Evaluations
 * are deterministic for a given model implementation, but the
 * implementation itself evolves: when model constants, the response
 * schema, or the persisted characterization encoding change, the
 * corresponding version below must be bumped so entries written by an
 * older build are *ignored* (a clean miss and recompute), never
 * served stale.
 */

#ifndef FOSM_COMMON_VERSION_HH
#define FOSM_COMMON_VERSION_HH

#include <cstdint>

namespace fosm {

/**
 * Version of the model semantics + response schema, folded into every
 * response-cache key (in memory and on disk). Bump whenever a change
 * makes previously computed responses non-reproducible: new or
 * renamed response members, changed model constants or defaults,
 * different rounding/serialization.
 */
inline constexpr std::uint32_t modelSchemaVersion = 1;

/**
 * Version of the binary encoding used for persisted workload
 * characterizations (miss profile + IW curve). Bump when the
 * encoder/decoder layout changes; old entries then miss by key.
 */
inline constexpr std::uint32_t characterizationFormatVersion = 1;

/**
 * Version of the application/x-fosm-batch wire format the gateway
 * speaks to backends for /v1/batch (server/batch.hh). Carried in
 * every frame; a receiver rejects frames from a different vintage
 * with 400 rather than misdecoding them. Bump when the frame layout
 * changes.
 */
inline constexpr std::uint32_t batchWireFormatVersion = 1;

} // namespace fosm

#endif // FOSM_COMMON_VERSION_HH
