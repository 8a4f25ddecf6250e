// Quickstart: the paper's running example end to end.
//
// Registers the three airfare contracts of Example 2 (Tickets A, B, C) by
// their temporal behavior and runs the paper's queries against them,
// printing which tickets permit what and the broker's per-query statistics.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "broker/database.h"
#include "broker/durable.h"
#include "wal/wal.h"

namespace {

// The lifecycle clauses C0-C5 shared by every airfare (paper Example 5):
// one event per instant, a single purchase that precedes everything, missed
// flights void the ticket unless rescheduled, refund/use are terminal.
const char* kCommonClauses =
    "G(purchase -> !use & !missedFlight & !refund & !dateChange) &"
    "G(use -> !purchase & !missedFlight & !refund & !dateChange) &"
    "G(missedFlight -> !purchase & !use & !refund & !dateChange) &"
    "G(refund -> !purchase & !use & !missedFlight & !dateChange) &"
    "G(dateChange -> !purchase & !use & !missedFlight & !refund) &"
    "G(purchase -> X(!F purchase)) &"
    "(purchase B (use | missedFlight | refund | dateChange)) &"
    "G((missedFlight -> !F use) W dateChange) &"
    "G(refund -> X(!F(use | missedFlight | refund | dateChange))) &"
    "G(use -> X(!F(use | missedFlight | refund | dateChange)))";

}  // namespace

int main() {
  ctdb::broker::ContractDatabase db;

  // --- Providers register contracts by their temporal behavior. -----------
  struct Spec {
    const char* name;
    const char* clauses;  // the ticket-specific clauses of Example 5
  };
  const Spec tickets[] = {
      // Ticket A: no refunds after date changes; unlimited date changes.
      {"Ticket A", "G(dateChange -> !F refund)"},
      // Ticket B: refunds always allowed; date changes only before departure
      // (no rescheduling once the flight was missed).
      {"Ticket B", "G(missedFlight -> !F dateChange)"},
      // Ticket C: no refunds; at most one date change; no rescheduling after
      // a missed flight.
      {"Ticket C",
       "G(!refund) & G(dateChange -> X(!F dateChange)) & "
       "G(missedFlight -> !F dateChange)"},
  };
  for (const Spec& ticket : tickets) {
    auto id = db.Register(ticket.name,
                          std::string(kCommonClauses) + " & " + ticket.clauses);
    if (!id.ok()) {
      std::fprintf(stderr, "registration failed: %s\n",
                   id.status().ToString().c_str());
      return 1;
    }
    std::printf("registered %-9s as contract #%u\n", ticket.name, *id);
  }
  // The marketplace vocabulary can mention events no contract cites yet.
  if (!db.InternEvent("classUpgrade").ok()) return 1;

  // --- Customers query by desired temporal behavior. ----------------------
  const struct {
    const char* description;
    const char* ltl;
  } queries[] = {
      {"refund or date change after a missed flight (the intro's query)",
       "F(missedFlight & F(refund | dateChange))"},
      {"a refund after a missed flight (Figure 1b)",
       "F(missedFlight & F refund)"},
      {"class upgrade after a date change (Example 4's Q2)",
       "F(dateChange & F classUpgrade)"},
      {"class upgrade OR refund after a date change (Q3)",
       "F(dateChange & F(classUpgrade | refund))"},
      {"two date changes", "F(dateChange & X F dateChange)"},
      {"plain old use-it ticket", "F(purchase & F use)"},
  };

  for (const auto& q : queries) {
    auto result = db.Query(q.ltl);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("\nquery: %s\n  LTL: %s\n  permitted by:", q.description,
                q.ltl);
    if (result->matches.empty()) std::printf(" (no contract)");
    for (uint32_t id : result->matches) {
      std::printf(" %s", db.contract(id).name.c_str());
    }
    std::printf("\n  stats: %s\n", result->stats.ToString().c_str());
  }

  // --- A production broker would make registrations durable (§10). --------
  // DurableDatabase wraps the same database behind a write-ahead log:
  // Register returns only once the record is fsynced per the policy, and
  // Open replays the log after a crash or restart.
  char wal_dir[] = "/tmp/ctdb_quickstart_XXXXXX";
  if (::mkdtemp(wal_dir) == nullptr) return 1;
  ctdb::wal::DurabilityOptions durability;
  // kAlways: every acknowledged Register is fsynced; concurrent ones share
  // an fsync.
  durability.fsync_policy = ctdb::wal::FsyncPolicy::kAlways;
  durability.checkpoint_log_bytes = 8u << 20;  // background checkpoint cadence
  {
    auto durable = ctdb::broker::DurableDatabase::Open(wal_dir, durability);
    if (!durable.ok()) return 1;
    for (const Spec& ticket : tickets) {
      if (!(*durable)
               ->Register(ticket.name,
                          std::string(kCommonClauses) + " & " + ticket.clauses)
               .ok()) {
        return 1;
      }
    }
    if (!(*durable)->Close().ok()) return 1;
  }
  // "Restart": reopen the directory and everything acknowledged is back.
  auto reopened = ctdb::broker::DurableDatabase::Open(wal_dir, durability);
  if (!reopened.ok()) return 1;
  std::printf("\ndurable broker at %s recovered %zu contracts from its log\n",
              wal_dir, (*reopened)->size());
  return (*reopened)->Close().ok() ? 0 : 1;
}
