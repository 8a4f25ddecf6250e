#include "broker/persistence.h"

#include <cinttypes>

#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#include "automata/serialize.h"
#include "util/file_util.h"
#include "util/string_util.h"

namespace ctdb::broker {

namespace {

constexpr const char* kHeaderV2 = "ctdb-database-v2";

std::string OneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

/// Shared body writer for live contracts and history versions.
void WriteContractBody(const Contract& contract, const Vocabulary& vocab,
                       std::ostream* out) {
  *out << "name " << OneLine(contract.name) << "\n";
  *out << "ltl " << OneLine(contract.ltl_text) << "\n";
  *out << "events";
  for (size_t e : contract.events.Indices()) *out << " " << e;
  *out << "\n";
  *out << automata::Serialize(contract.automaton(), vocab);
}

}  // namespace

Status SaveSnapshot(const DatabaseSnapshot& snapshot, std::ostream* out) {
  const Vocabulary& vocab = snapshot.vocabulary();
  *out << kHeaderV2 << "\n";
  // Mutation count and system clock: recovery validates a checkpoint by its
  // op count and resumes the as_of axis from the clock (DESIGN.md §14).
  *out << "sequence " << snapshot.ops() << " " << snapshot.sequence() << "\n";
  *out << "vocabulary " << vocab.size() << "\n";
  for (const std::string& name : vocab.names()) {
    *out << "v " << name << "\n";
  }
  // Live contracts carry explicit (possibly sparse) ids; `slots` restores
  // trailing holes so later registrations keep allocating fresh ids.
  *out << "contracts " << snapshot.size() << " slots "
       << snapshot.slot_count() << "\n";
  for (uint32_t id = 0; id < snapshot.slot_count(); ++id) {
    const Contract* contract = snapshot.contract_or_null(id);
    if (contract == nullptr) continue;
    *out << "contract " << id << " valid-from " << contract->valid_from
         << "\n";
    WriteContractBody(*contract, vocab, out);
  }
  const HistoryStore& history = snapshot.history();
  *out << "history " << history.size() << " floor " << history.floor()
       << "\n";
  for (const ContractVersion& v : history.versions()) {
    *out << "version " << v.contract->id << " " << v.valid_from << " "
         << v.valid_to << "\n";
    WriteContractBody(*v.contract, vocab, out);
  }
  *out << "end-database\n";
  if (!out->good()) return Status::Internal("write failure while saving");
  return Status::OK();
}

Status SaveDatabase(const ContractDatabase& db, std::ostream* out) {
  return SaveSnapshot(*db.Snapshot(), out);
}

Status SaveDatabaseToFile(const ContractDatabase& db,
                          const std::string& path) {
  // Serialize to memory, then publish with temp-file + atomic rename so a
  // crash mid-save never leaves a truncated image where a previous good one
  // stood (checkpoints in broker/durable.cc rely on the same helper).
  std::ostringstream out;
  CTDB_RETURN_NOT_OK(SaveDatabase(db, &out));
  return util::WriteFileAtomic(path, out.str());
}

Result<std::unique_ptr<ContractDatabase>> LoadDatabase(
    std::istream& in, const DatabaseOptions& options) {
  auto db = std::make_unique<ContractDatabase>(options);
  std::string line;

  auto next_line = [&](const char* what) -> Result<std::string> {
    while (std::getline(in, line)) {
      const std::string_view trimmed = Trim(line);
      if (!trimmed.empty()) return std::string(trimmed);
    }
    return Status::InvalidArgument(std::string("unexpected end of input, ") +
                                   "expected " + what);
  };

  /// One contract body: name, ltl, events, serialized BA — shared by the
  /// live list and the history list.
  struct Body {
    std::string name;
    std::string ltl;
    Bitset events;
    automata::Buchi ba;
  };
  auto read_body = [&]() -> Result<Body> {
    Body body;
    CTDB_ASSIGN_OR_RETURN(std::string name_line, next_line("name"));
    if (!StartsWith(name_line, "name ")) {
      return Status::InvalidArgument("expected 'name', got: " + name_line);
    }
    body.name = name_line.substr(5);
    CTDB_ASSIGN_OR_RETURN(std::string ltl_line, next_line("ltl"));
    if (!StartsWith(ltl_line, "ltl ")) {
      return Status::InvalidArgument("expected 'ltl', got: " + ltl_line);
    }
    body.ltl = ltl_line.substr(4);
    CTDB_ASSIGN_OR_RETURN(std::string events_line, next_line("events"));
    if (!StartsWith(events_line, "events")) {
      return Status::InvalidArgument("expected 'events', got: " + events_line);
    }
    for (const std::string& tok : Split(events_line.substr(6), ' ')) {
      const std::string_view t = Trim(tok);
      if (t.empty()) continue;
      size_t e = 0;
      if (std::sscanf(std::string(t).c_str(), "%zu", &e) != 1 ||
          e >= db->vocabulary()->size()) {
        return Status::InvalidArgument("bad event id in: " + events_line);
      }
      body.events.Resize(e + 1);
      body.events.Set(e);
    }
    // Collect the BA block up to and including its 'end'.
    std::string ba_text;
    while (true) {
      CTDB_ASSIGN_OR_RETURN(std::string ba_line, next_line("ba body"));
      ba_text += ba_line;
      ba_text += "\n";
      if (ba_line == "end") break;
    }
    CTDB_ASSIGN_OR_RETURN(body.ba,
                          automata::Deserialize(ba_text, db->vocabulary()));
    return body;
  };

  CTDB_ASSIGN_OR_RETURN(std::string header, next_line("header"));
  if (header != kHeaderV2) {
    return Status::InvalidArgument("not a ctdb database: bad header");
  }

  uint64_t ops = 0, clock = 0;
  CTDB_ASSIGN_OR_RETURN(std::string seq_line, next_line("sequence"));
  if (std::sscanf(seq_line.c_str(), "sequence %" SCNu64 " %" SCNu64, &ops,
                  &clock) != 2) {
    return Status::InvalidArgument("malformed sequence line");
  }

  CTDB_ASSIGN_OR_RETURN(std::string vocab_line, next_line("vocabulary"));
  size_t vocab_count = 0;
  if (std::sscanf(vocab_line.c_str(), "vocabulary %zu", &vocab_count) != 1) {
    return Status::InvalidArgument("malformed vocabulary line");
  }
  for (size_t i = 0; i < vocab_count; ++i) {
    CTDB_ASSIGN_OR_RETURN(std::string v, next_line("vocabulary entry"));
    if (!StartsWith(v, "v ")) {
      return Status::InvalidArgument("malformed vocabulary entry: " + v);
    }
    // InternEvent publishes, so a vocabulary entry no contract cites (e.g. a
    // query-only event) is restored as queryable, exactly as saved.
    CTDB_RETURN_NOT_OK(
        db->InternEvent(Trim(std::string_view(v).substr(2))).status());
  }

  CTDB_ASSIGN_OR_RETURN(std::string contracts_line, next_line("contracts"));
  size_t contract_count = 0;
  size_t slot_count = 0;
  if (std::sscanf(contracts_line.c_str(), "contracts %zu slots %zu",
                  &contract_count, &slot_count) != 2) {
    return Status::InvalidArgument("malformed contracts line");
  }

  size_t min_next_id = 0;
  for (size_t c = 0; c < contract_count; ++c) {
    CTDB_ASSIGN_OR_RETURN(std::string contract_line, next_line("contract"));
    size_t declared_id = 0;
    uint64_t valid_from = 0;
    if (std::sscanf(contract_line.c_str(), "contract %zu valid-from %" SCNu64,
                    &declared_id, &valid_from) != 2) {
      return Status::InvalidArgument("malformed contract line: " +
                                     contract_line);
    }
    if (declared_id < min_next_id || declared_id >= slot_count) {
      return Status::InvalidArgument(
          "contract ids must ascend within the slot range");
    }
    min_next_id = declared_id + 1;
    CTDB_ASSIGN_OR_RETURN(Body body, read_body());
    CTDB_RETURN_NOT_OK(
        db->RestoreContract(static_cast<uint32_t>(declared_id),
                            std::move(body.name), std::move(body.ltl),
                            std::move(body.ba), std::move(body.events),
                            valid_from)
            .status());
  }

  CTDB_ASSIGN_OR_RETURN(std::string history_line, next_line("history"));
  size_t history_count = 0;
  uint64_t history_floor = 0;
  if (std::sscanf(history_line.c_str(), "history %zu floor %" SCNu64,
                  &history_count, &history_floor) != 2) {
    return Status::InvalidArgument("malformed history line");
  }
  for (size_t i = 0; i < history_count; ++i) {
    CTDB_ASSIGN_OR_RETURN(std::string version_line, next_line("version"));
    size_t id = 0;
    uint64_t from = 0, to = 0;
    if (std::sscanf(version_line.c_str(), "version %zu %" SCNu64 " %" SCNu64,
                    &id, &from, &to) != 3) {
      return Status::InvalidArgument("malformed version line: " +
                                     version_line);
    }
    CTDB_ASSIGN_OR_RETURN(Body body, read_body());
    CTDB_RETURN_NOT_OK(db->RestoreHistoryVersion(
        static_cast<uint32_t>(id), std::move(body.name), std::move(body.ltl),
        std::move(body.ba), std::move(body.events), from, to));
  }

  CTDB_ASSIGN_OR_RETURN(std::string footer, next_line("end-database"));
  if (footer != "end-database") {
    return Status::InvalidArgument("missing end-database footer");
  }
  CTDB_RETURN_NOT_OK(
      db->RestoreLifecycle(ops, clock, history_floor, slot_count));
  return db;
}

Result<std::unique_ptr<ContractDatabase>> LoadDatabaseFromFile(
    const std::string& path, const DatabaseOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open: " + path);
  }
  return LoadDatabase(in, options);
}

}  // namespace ctdb::broker
