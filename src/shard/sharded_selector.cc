#include "shard/sharded_selector.h"

#include <utility>

namespace easeml::shard {

Result<std::unique_ptr<ShardedMultiTenantSelector>>
ShardedMultiTenantSelector::Create(const core::SelectorOptions& options) {
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector engine,
                          core::MultiTenantSelector::Create(options));
  return std::unique_ptr<ShardedMultiTenantSelector>(
      new ShardedMultiTenantSelector(std::move(engine)));
}

Result<std::unique_ptr<core::MultiTenantSelector>> MakeSelector(
    const core::SelectorOptions& options) {
  EASEML_ASSIGN_OR_RETURN(core::MultiTenantSelector engine,
                          core::MultiTenantSelector::Create(options));
  return std::make_unique<core::MultiTenantSelector>(std::move(engine));
}

}  // namespace easeml::shard
