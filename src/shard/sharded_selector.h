#ifndef EASEML_SHARD_SHARDED_SELECTOR_H_
#define EASEML_SHARD_SHARDED_SELECTOR_H_

#include <memory>
#include <utility>

#include "core/multi_tenant_selector.h"

namespace easeml::shard {

/// Another name for the one selector engine, kept only for callers that
/// still spell it: `Create` returns the engine `MakeSelector` builds.
/// Adds no state and no behavior.
class ShardedMultiTenantSelector final : public core::MultiTenantSelector {
 public:
  static Result<std::unique_ptr<ShardedMultiTenantSelector>> Create(
      const core::SelectorOptions& options);

 private:
  explicit ShardedMultiTenantSelector(core::MultiTenantSelector&& engine)
      : core::MultiTenantSelector(std::move(engine)) {}
};

/// Builds the selector engine `options` asks for, behind the pointer every
/// caller holds: thread-safe, with tenant `t` on shard
/// `t % options.num_shards`. Same engine as `MultiTenantSelector::Create`.
Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options);

}  // namespace easeml::shard

#endif  // EASEML_SHARD_SHARDED_SELECTOR_H_
