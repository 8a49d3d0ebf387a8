// HyperQService sessions and the session journal (DESIGN.md §6, "Failover
// & overload"): open/close, and the replayable effects a lost backend
// session is rebuilt from.

#include <algorithm>

#include "service/hyperq_service.h"

namespace hyperq::service {

using sql::StmtKind;

Result<uint32_t> HyperQService::OpenSession(
    const std::string& user, const std::string& default_database) {
  auto session = std::make_unique<Session>();
  session->id = next_session_.fetch_add(1);
  session->info.user = user.empty() ? "dbc" : user;
  session->info.session_id = static_cast<int>(session->id);
  if (!default_database.empty()) {
    session->info.default_database = default_database;
  }
  // Placement: the router picks the session's home backend by health,
  // load, and capability match with the emitted profile. Result
  // buffering/spill is charged against the shared governor under the
  // session's id (DESIGN.md §8).
  backend::RouteConstraints constraints;
  constraints.emitted = &options_.profile;
  HQ_ASSIGN_OR_RETURN(backend::RouteDecision route,
                      router_->Pick(constraints));
  RecordRoute(route);
  session->backend_index = route.backend;
  pool_->AttachSession(route.backend);
  session->connector = pool_->CreateConnector(route.backend, session->id);
  session->settings_digest = SettingsDigest(session->info);
  uint32_t id = session->id;
  std::lock_guard<std::mutex> lock(mutex_);
  sessions_.emplace(id, std::move(session));
  return id;
}

void HyperQService::CloseSession(uint32_t session_id) {
  std::unique_ptr<Session> session;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(session_id);
    if (it == sessions_.end()) return;
    session = std::move(it->second);
    sessions_.erase(it);
  }
  pool_->DetachSession(session->backend_index);
  // Volatile tables are session-scoped: drop them on logoff.
  for (const std::string& table : session->volatile_tables) {
    (void)session->connector->Execute("DROP TABLE IF EXISTS " + table);
    std::lock_guard<std::mutex> lock(mutex_);
    if (catalog_.HasTable(table)) (void)catalog_.DropTable(table);
    auto it = volatile_names_.find(table);
    if (it != volatile_names_.end() && --it->second <= 0) {
      volatile_names_.erase(it);
    }
  }
  if (!session->volatile_tables.empty()) {
    InvalidateTranslationCacheAfterDdl();
  }
}

Result<HyperQService::Session*> HyperQService::GetSession(uint32_t id) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(id);
  if (it == sessions_.end()) {
    return Status::InvalidArgument("unknown session ", id);
  }
  return it->second.get();
}

size_t HyperQService::journal_size(uint32_t session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0 : it->second->journal.size();
}

// ---------------------------------------------------------------------------
// Failover: session journal & replay (DESIGN.md §6, "Failover & overload")
// ---------------------------------------------------------------------------

void HyperQService::AppendJournal(Session* session, JournalEntry entry) {
  if (session->journal_overflow) return;
  if (session->journal.size() >= options_.failover.max_journal_entries) {
    // Past the cap the journal can no longer reproduce the session: drop it
    // entirely (a truncated replay would be silently wrong) and degrade
    // failover to a clean error.
    session->journal_overflow = true;
    session->journal.clear();
    session->journal.shrink_to_fit();
    return;
  }
  session->journal.push_back(std::move(entry));
}

void HyperQService::CompactJournal(Session* session,
                                   const std::string& table) {
  auto& j = session->journal;
  j.erase(std::remove_if(j.begin(), j.end(),
                         [&](const JournalEntry& e) {
                           return !e.table.empty() && e.table == table;
                         }),
          j.end());
}

bool HyperQService::IsVolatileTable(const Session* session,
                                    const std::string& name) const {
  for (const auto& t : session->volatile_tables) {
    if (t == name) return true;
  }
  return false;
}

bool HyperQService::StatementIsNonIdempotent(const sql::Statement& stmt) {
  switch (stmt.kind) {
    case StmtKind::kInsert:
    case StmtKind::kUpdate:
    case StmtKind::kDelete:
    case StmtKind::kMerge:
    case StmtKind::kExecMacro:  // macro bodies may contain DML
      return true;
    default:
      return false;
  }
}

Result<int> HyperQService::ReplaySessionJournal(Session* session) {
  if (session->journal_overflow) {
    c_journal_overflows_->Inc();
    return Status::Unavailable(
        "backend session lost and the session journal overflowed (limit ",
        options_.failover.max_journal_entries,
        " entries); session state cannot be replayed");
  }
  int replayed = 0;
  for (const auto& entry : session->journal) {
    if (entry.kind == JournalEntry::Kind::kSetSession) {
      // Mid-tier state: it survives in the DTM; nothing reaches the target.
      ++replayed;
      continue;
    }
    if (entry.kind == JournalEntry::Kind::kTempTableDdl &&
        !entry.table.empty()) {
      // Cross-replica replay may land where an orphaned copy of the
      // volatile table still exists (compute replicas over shared
      // storage); clear it so the journaled CREATE cannot collide.
      (void)session->connector->Execute("DROP TABLE IF EXISTS " +
                                        entry.table);
    }
    auto result = session->connector->Execute(entry.sql);
    if (!result.ok()) {
      return result.status().WithContext("session journal replay of '" +
                                         entry.sql + "'");
    }
    if (entry.kind == JournalEntry::Kind::kTempTableDdl &&
        !entry.table.empty()) {
      // The (possibly new) connector must track the recreated table as
      // session-scoped so a later loss drops it again.
      session->connector->NoteSessionTable(entry.table);
    }
    ++replayed;
  }
  c_failovers_->Inc();
  c_statements_replayed_->Inc(replayed);
  return replayed;
}

int HyperQService::session_backend(uint32_t session_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) return -1;
  return it->second->backend_index;
}

}  // namespace hyperq::service
