#ifndef CQP_SERVER_SHARD_SHARDED_PROFILE_STORE_H_
#define CQP_SERVER_SHARD_SHARDED_PROFILE_STORE_H_

#include "server/profile_store.h"

namespace cqp::server::shard {

/// Former names of ProfileStore and StoreOptions. They exist only because
/// cqpbench/workloads.cc names them (the benchmark's sources stay fixed so
/// its runs compare across commits); new code uses the server:: names.
using ShardedProfileStore = ProfileStore;
using ShardedStoreOptions = StoreOptions;

}  // namespace cqp::server::shard

#endif  // CQP_SERVER_SHARD_SHARDED_PROFILE_STORE_H_
