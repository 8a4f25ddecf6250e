// Saving and loading contract databases.
//
// The paper's architecture (§3, §7.1) precomputes registration-time data for
// a "fairly static" contract database whose contracts are each queried many
// times; persisting the registered automata lets a broker restart without
// re-running the LTL→BA translation for every contract. The format is plain
// text (the paper's modules exchange text files). The current header is
// `ctdb-database-v2`: mutation count + system clock, the vocabulary, live
// contracts with explicit (possibly sparse) ids and their `valid-from`
// clocks, then the history store — superseded versions with their
// [valid_from, valid_to) periods and the retention floor (DESIGN.md §14).
// Only v2 images are read; any other header, v1 included, is rejected. The
// WAL likewise reads only its v2 payload layout (wal/record.h). No v1 data
// was ever deployed.
// Prefilter index, seed sets and projection partitions are recomputed at
// load time from the stored automata (they are deterministic functions of
// them and of the load-time DatabaseOptions).

#pragma once

#include <iosfwd>
#include <memory>
#include <string>

#include "broker/database.h"
#include "util/result.h"

namespace ctdb::broker {

/// Serializes a database snapshot (vocabulary + every contract) to `out`.
/// Newlines inside contract names or LTL text are replaced by spaces (LTL is
/// whitespace-insensitive; names are labels). Because a snapshot is frozen,
/// this is safe to run while registration continues — the saved state is
/// exactly the snapshot's.
Status SaveSnapshot(const DatabaseSnapshot& snapshot, std::ostream* out);

/// Serializes `db`'s current snapshot to `out` (SaveSnapshot on
/// db.Snapshot()).
Status SaveDatabase(const ContractDatabase& db, std::ostream* out);

/// Writes SaveDatabase output to `path` crash-safely: the image is written
/// to `<path>.tmp`, fsynced, and atomically renamed into place, so `path`
/// always holds either the previous complete image or the new one.
Status SaveDatabaseToFile(const ContractDatabase& db, const std::string& path);

/// Rebuilds a database from a SaveDatabase stream. Contract ids are
/// preserved; per-contract precomputations (seeds, prefilter entries,
/// projection partitions) are rebuilt under `options`.
Result<std::unique_ptr<ContractDatabase>> LoadDatabase(
    std::istream& in, const DatabaseOptions& options = {});

/// Reads LoadDatabase input from `path`.
Result<std::unique_ptr<ContractDatabase>> LoadDatabaseFromFile(
    const std::string& path, const DatabaseOptions& options = {});

}  // namespace ctdb::broker
