#include "wal/wal.h"

namespace ctdb::wal {

const char* FsyncPolicyName(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kAlways:
      return "always";
    case FsyncPolicy::kNever:
      return "never";
  }
  return "unknown";
}

}  // namespace ctdb::wal
