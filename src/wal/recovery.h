#ifndef EASEML_WAL_RECOVERY_H_
#define EASEML_WAL_RECOVERY_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "core/multi_tenant_selector.h"
#include "wal/checkpoint.h"
#include "wal/file.h"
#include "wal/selector_wal.h"

namespace easeml::wal {

/// What recovery did, for operators and the fault-injection battery.
struct RecoveryStats {
  /// True when a valid checkpoint was restored (replay started from its
  /// embedded log position instead of offset 0).
  bool used_checkpoint = false;
  /// Epoch the restored checkpoint covered (0 when none).
  int64_t checkpoint_epoch = 0;
  /// Non-pad records replayed through the engine on top of the starting
  /// state.
  int64_t replayed_records = 0;
  /// Bytes cut from the log's torn tail (0 for a clean log).
  int64_t truncated_bytes = 0;
  /// Why the tail was truncated (empty for a clean log).
  std::string truncate_reason;
  /// Last epoch in the recovered history — every operation with an epoch
  /// at or below this survived; everything after is cleanly absent.
  int64_t last_epoch = 0;
  /// Log size after tail repair.
  int64_t log_bytes = 0;
};

/// A recovered durable selector. The WAL member is declared before the
/// selector so it outlives it during destruction (the selector's hooks
/// hold a raw `DurabilityLog*` into it).
struct RecoveredSelector {
  std::unique_ptr<SelectorWal> wal;
  std::unique_ptr<core::MultiTenantSelector> selector;
  RecoveryStats stats;
};

/// Opens the durable selector living in directory `dir` (creating it on
/// first use): reads the checkpoint if one exists, restores it into a
/// fresh engine built from `options` (with `options.num_shards` shards),
/// scans the log, repairs the torn tail by truncation, deterministically
/// replays the surviving suffix through the engine's public API, and
/// resumes the WAL at the recovered end so the returned engine continues
/// appending where history stops.
///
/// `options.wal` must be null on entry (the function wires the recovered
/// WAL in). Damage taxonomy: tail damage (short/garbled/CRC-failed last
/// records) is repaired by truncation; a CRC-VALID record whose epoch
/// skips ahead means records are missing in the MIDDLE and recovery
/// refuses with DataLoss rather than replay a divergent history. A
/// missing or corrupt checkpoint is never fatal — replay falls back to
/// the full log.
Result<RecoveredSelector> OpenOrRecover(FileSystem* fs,
                                        const std::string& dir,
                                        core::SelectorOptions options,
                                        SelectorWalOptions wal_options = {});

}  // namespace easeml::wal

#endif  // EASEML_WAL_RECOVERY_H_
