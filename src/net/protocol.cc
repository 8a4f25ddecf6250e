#include "net/protocol.h"

#include "util/byte_codec.h"
#include "util/crc32c.h"

namespace ctdb::net {

using util::GetString;
using util::GetU32;
using util::GetU64;
using util::GetU8;
using util::PutString;
using util::PutU32;
using util::PutU64;
using util::PutU8;

namespace {

/// True when `count` elements of at least `min_bytes` each can still fit in
/// the remaining payload — the guard that keeps a hostile count prefix from
/// turning into a giant vector allocation.
bool CountFits(std::string_view data, size_t offset, uint32_t count,
               size_t min_bytes) {
  return static_cast<uint64_t>(count) * min_bytes <= data.size() - offset;
}

Status Corrupt(const char* what) { return Status::Corruption(what); }

void PutVerdicts(std::string* out,
                 const std::vector<monitor::VerdictDelta>& verdicts) {
  PutU32(out, static_cast<uint32_t>(verdicts.size()));
  for (const monitor::VerdictDelta& v : verdicts) {
    PutU32(out, v.contract_id);
    PutU8(out, static_cast<uint8_t>(v.verdict));
  }
}

bool GetVerdicts(std::string_view data, size_t* offset,
                 std::vector<monitor::VerdictDelta>* verdicts) {
  uint32_t count = 0;
  if (!GetU32(data, offset, &count) || !CountFits(data, *offset, count, 5)) {
    return false;
  }
  verdicts->resize(count);
  for (monitor::VerdictDelta& v : *verdicts) {
    uint8_t verdict = 0;
    if (!GetU32(data, offset, &v.contract_id) ||
        !GetU8(data, offset, &verdict) ||
        verdict > static_cast<uint8_t>(monitor::StreamVerdict::kViolated)) {
      return false;
    }
    v.verdict = static_cast<monitor::StreamVerdict>(verdict);
  }
  return true;
}

}  // namespace

bool IsRequestKind(uint8_t kind) {
  return kind >= static_cast<uint8_t>(MsgKind::kRegister) &&
         kind <= static_cast<uint8_t>(MsgKind::kStreamClose);
}

Request Request::Register(uint64_t id, std::string name, std::string ltl) {
  Request r;
  r.kind = MsgKind::kRegister;
  r.id = id;
  r.name = std::move(name);
  r.ltl = std::move(ltl);
  return r;
}

Request Request::RegisterBatch(uint64_t id, std::vector<Entry> entries) {
  Request r;
  r.kind = MsgKind::kRegisterBatch;
  r.id = id;
  r.entries = std::move(entries);
  return r;
}

Request Request::Query(uint64_t id, std::string ltl, uint64_t as_of) {
  Request r;
  r.kind = MsgKind::kQuery;
  r.id = id;
  r.ltl = std::move(ltl);
  r.as_of = as_of;
  return r;
}

Request Request::QueryBatch(uint64_t id, std::vector<std::string> queries,
                            uint64_t as_of) {
  Request r;
  r.kind = MsgKind::kQueryBatch;
  r.id = id;
  r.queries = std::move(queries);
  r.as_of = as_of;
  return r;
}

Request Request::Checkpoint(uint64_t id) {
  Request r;
  r.kind = MsgKind::kCheckpoint;
  r.id = id;
  return r;
}

Request Request::Stats(uint64_t id) {
  Request r;
  r.kind = MsgKind::kStats;
  r.id = id;
  return r;
}

Request Request::Unregister(uint64_t id, uint32_t contract_id) {
  Request r;
  r.kind = MsgKind::kUnregister;
  r.id = id;
  r.contract_id = contract_id;
  return r;
}

Request Request::Replace(uint64_t id, uint32_t contract_id, std::string ltl) {
  Request r;
  r.kind = MsgKind::kReplace;
  r.id = id;
  r.contract_id = contract_id;
  r.ltl = std::move(ltl);
  return r;
}

Request Request::StreamOpen(uint64_t id, std::string name, uint64_t as_of) {
  Request r;
  r.kind = MsgKind::kStreamOpen;
  r.id = id;
  r.name = std::move(name);
  r.as_of = as_of;
  return r;
}

Request Request::StreamAppend(uint64_t id, std::string name,
                              monitor::EventBatch events) {
  Request r;
  r.kind = MsgKind::kStreamAppend;
  r.id = id;
  r.name = std::move(name);
  r.events = std::move(events);
  return r;
}

Request Request::StreamClose(uint64_t id, std::string name) {
  Request r;
  r.kind = MsgKind::kStreamClose;
  r.id = id;
  r.name = std::move(name);
  return r;
}

Response Response::Error(const Request& request, const Status& status) {
  Response response;
  response.id = request.id;
  response.request_kind = request.kind;
  response.code = status.code();
  response.message = status.message();
  return response;
}

std::string EncodeRequestPayload(const Request& request) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(request.kind));
  PutU64(&out, request.id);
  switch (request.kind) {
    case MsgKind::kRegister:
      PutString(&out, request.name);
      PutString(&out, request.ltl);
      break;
    case MsgKind::kRegisterBatch:
      PutU32(&out, static_cast<uint32_t>(request.entries.size()));
      for (const Request::Entry& entry : request.entries) {
        PutString(&out, entry.name);
        PutString(&out, entry.ltl);
      }
      break;
    case MsgKind::kQuery:
      PutString(&out, request.ltl);
      PutU64(&out, request.as_of);
      break;
    case MsgKind::kQueryBatch:
      PutU32(&out, static_cast<uint32_t>(request.queries.size()));
      for (const std::string& q : request.queries) PutString(&out, q);
      PutU64(&out, request.as_of);
      break;
    case MsgKind::kUnregister:
      PutU32(&out, request.contract_id);
      break;
    case MsgKind::kReplace:
      PutU32(&out, request.contract_id);
      PutString(&out, request.ltl);
      break;
    case MsgKind::kStreamOpen:
      PutString(&out, request.name);
      PutU64(&out, request.as_of);
      break;
    case MsgKind::kStreamAppend:
      PutString(&out, request.name);
      PutU32(&out, static_cast<uint32_t>(request.events.size()));
      for (const std::vector<std::string>& instant : request.events) {
        PutU32(&out, static_cast<uint32_t>(instant.size()));
        for (const std::string& event : instant) PutString(&out, event);
      }
      break;
    case MsgKind::kStreamClose:
      PutString(&out, request.name);
      break;
    case MsgKind::kCheckpoint:
    case MsgKind::kStats:
    case MsgKind::kResponse:
      break;
  }
  return out;
}

Status DecodeRequestPayload(std::string_view payload, Request* request) {
  *request = Request();
  size_t offset = 0;
  uint8_t kind = 0;
  if (!GetU8(payload, &offset, &kind) ||
      !GetU64(payload, &offset, &request->id)) {
    return Corrupt("request payload truncated in header");
  }
  if (!IsRequestKind(kind)) {
    return Status::Corruption("unknown request kind " + std::to_string(kind));
  }
  request->kind = static_cast<MsgKind>(kind);
  switch (request->kind) {
    case MsgKind::kRegister:
      if (!GetString(payload, &offset, &request->name) ||
          !GetString(payload, &offset, &request->ltl)) {
        return Corrupt("register request truncated");
      }
      break;
    case MsgKind::kRegisterBatch: {
      uint32_t count = 0;
      if (!GetU32(payload, &offset, &count) ||
          !CountFits(payload, offset, count, 8)) {
        return Corrupt("register batch count exceeds payload");
      }
      request->entries.resize(count);
      for (Request::Entry& entry : request->entries) {
        if (!GetString(payload, &offset, &entry.name) ||
            !GetString(payload, &offset, &entry.ltl)) {
          return Corrupt("register batch entry truncated");
        }
      }
      break;
    }
    case MsgKind::kQuery:
      if (!GetString(payload, &offset, &request->ltl) ||
          !GetU64(payload, &offset, &request->as_of)) {
        return Corrupt("query request truncated");
      }
      break;
    case MsgKind::kQueryBatch: {
      uint32_t count = 0;
      if (!GetU32(payload, &offset, &count) ||
          !CountFits(payload, offset, count, 4)) {
        return Corrupt("query batch count exceeds payload");
      }
      request->queries.resize(count);
      for (std::string& q : request->queries) {
        if (!GetString(payload, &offset, &q)) {
          return Corrupt("query batch entry truncated");
        }
      }
      if (!GetU64(payload, &offset, &request->as_of)) {
        return Corrupt("query batch as_of truncated");
      }
      break;
    }
    case MsgKind::kUnregister:
      if (!GetU32(payload, &offset, &request->contract_id)) {
        return Corrupt("unregister request truncated");
      }
      break;
    case MsgKind::kReplace:
      if (!GetU32(payload, &offset, &request->contract_id) ||
          !GetString(payload, &offset, &request->ltl)) {
        return Corrupt("replace request truncated");
      }
      break;
    case MsgKind::kStreamOpen:
      if (!GetString(payload, &offset, &request->name) ||
          !GetU64(payload, &offset, &request->as_of)) {
        return Corrupt("stream open request truncated");
      }
      break;
    case MsgKind::kStreamAppend: {
      uint32_t count = 0;
      if (!GetString(payload, &offset, &request->name) ||
          !GetU32(payload, &offset, &count) ||
          !CountFits(payload, offset, count, 4)) {
        return Corrupt("stream append instant count exceeds payload");
      }
      request->events.resize(count);
      for (std::vector<std::string>& instant : request->events) {
        uint32_t names = 0;
        if (!GetU32(payload, &offset, &names) ||
            !CountFits(payload, offset, names, 4)) {
          return Corrupt("stream append event count exceeds payload");
        }
        instant.resize(names);
        for (std::string& event : instant) {
          if (!GetString(payload, &offset, &event)) {
            return Corrupt("stream append event truncated");
          }
        }
      }
      break;
    }
    case MsgKind::kStreamClose:
      if (!GetString(payload, &offset, &request->name)) {
        return Corrupt("stream close request truncated");
      }
      break;
    case MsgKind::kCheckpoint:
    case MsgKind::kStats:
    case MsgKind::kResponse:
      break;
  }
  if (offset != payload.size()) {
    return Corrupt("trailing bytes after request body");
  }
  return Status::OK();
}

std::string EncodeResponsePayload(const Response& response) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MsgKind::kResponse));
  PutU64(&out, response.id);
  PutU8(&out, static_cast<uint8_t>(response.request_kind));
  PutU8(&out, static_cast<uint8_t>(response.code));
  PutString(&out, response.message);
  if (response.code != StatusCode::kOk) return out;
  switch (response.request_kind) {
    case MsgKind::kRegister:
    case MsgKind::kRegisterBatch:
      PutU32(&out, static_cast<uint32_t>(response.ids.size()));
      for (uint32_t id : response.ids) PutU32(&out, id);
      break;
    case MsgKind::kQuery:
    case MsgKind::kQueryBatch:
      PutU32(&out, static_cast<uint32_t>(response.answers.size()));
      for (const Response::Answer& answer : response.answers) {
        PutU32(&out, static_cast<uint32_t>(answer.matches.size()));
        for (uint32_t id : answer.matches) PutU32(&out, id);
        PutU64(&out, answer.total_us);
        PutU64(&out, answer.candidates);
      }
      break;
    case MsgKind::kCheckpoint:
    case MsgKind::kUnregister:
    case MsgKind::kReplace:
      PutU64(&out, response.sequence);
      break;
    case MsgKind::kStats:
      PutString(&out, response.stats_json);
      break;
    case MsgKind::kStreamOpen:
      PutU64(&out, response.sequence);
      PutU32(&out, response.tracked);
      break;
    case MsgKind::kStreamAppend:
      PutU64(&out, response.events);
      PutU64(&out, response.stepped);
      PutU64(&out, response.pruned);
      PutVerdicts(&out, response.verdicts);
      break;
    case MsgKind::kStreamClose:
      PutU64(&out, response.events);
      PutU32(&out, response.satisfied);
      PutU32(&out, response.violated);
      PutU32(&out, response.undetermined);
      PutVerdicts(&out, response.verdicts);
      break;
    case MsgKind::kResponse:
      break;
  }
  return out;
}

Status DecodeResponsePayload(std::string_view payload, Response* response) {
  *response = Response();
  size_t offset = 0;
  uint8_t kind = 0, request_kind = 0, code = 0;
  if (!GetU8(payload, &offset, &kind) ||
      !GetU64(payload, &offset, &response->id) ||
      !GetU8(payload, &offset, &request_kind) ||
      !GetU8(payload, &offset, &code) ||
      !GetString(payload, &offset, &response->message)) {
    return Corrupt("response payload truncated in header");
  }
  if (kind != static_cast<uint8_t>(MsgKind::kResponse)) {
    return Status::Corruption("not a response frame, kind " +
                              std::to_string(kind));
  }
  if (!IsRequestKind(request_kind)) {
    return Status::Corruption("response to unknown request kind " +
                              std::to_string(request_kind));
  }
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return Status::Corruption("unknown status code " + std::to_string(code));
  }
  response->request_kind = static_cast<MsgKind>(request_kind);
  response->code = static_cast<StatusCode>(code);
  if (response->code == StatusCode::kOk) {
    switch (response->request_kind) {
      case MsgKind::kRegister:
      case MsgKind::kRegisterBatch: {
        uint32_t count = 0;
        if (!GetU32(payload, &offset, &count) ||
            !CountFits(payload, offset, count, 4)) {
          return Corrupt("response id count exceeds payload");
        }
        response->ids.resize(count);
        for (uint32_t& id : response->ids) {
          if (!GetU32(payload, &offset, &id)) {
            return Corrupt("response ids truncated");
          }
        }
        break;
      }
      case MsgKind::kQuery:
      case MsgKind::kQueryBatch: {
        uint32_t count = 0;
        if (!GetU32(payload, &offset, &count) ||
            !CountFits(payload, offset, count, 20)) {
          return Corrupt("answer count exceeds payload");
        }
        response->answers.resize(count);
        for (Response::Answer& answer : response->answers) {
          uint32_t matches = 0;
          if (!GetU32(payload, &offset, &matches) ||
              !CountFits(payload, offset, matches, 4)) {
            return Corrupt("match count exceeds payload");
          }
          answer.matches.resize(matches);
          for (uint32_t& id : answer.matches) {
            if (!GetU32(payload, &offset, &id)) {
              return Corrupt("answer matches truncated");
            }
          }
          if (!GetU64(payload, &offset, &answer.total_us) ||
              !GetU64(payload, &offset, &answer.candidates)) {
            return Corrupt("answer stats truncated");
          }
        }
        break;
      }
      case MsgKind::kCheckpoint:
      case MsgKind::kUnregister:
      case MsgKind::kReplace:
        if (!GetU64(payload, &offset, &response->sequence)) {
          return Corrupt("sequence response truncated");
        }
        break;
      case MsgKind::kStats:
        if (!GetString(payload, &offset, &response->stats_json)) {
          return Corrupt("stats response truncated");
        }
        break;
      case MsgKind::kStreamOpen:
        if (!GetU64(payload, &offset, &response->sequence) ||
            !GetU32(payload, &offset, &response->tracked)) {
          return Corrupt("stream open response truncated");
        }
        break;
      case MsgKind::kStreamAppend:
        if (!GetU64(payload, &offset, &response->events) ||
            !GetU64(payload, &offset, &response->stepped) ||
            !GetU64(payload, &offset, &response->pruned) ||
            !GetVerdicts(payload, &offset, &response->verdicts)) {
          return Corrupt("stream append response truncated or bad verdict");
        }
        break;
      case MsgKind::kStreamClose:
        if (!GetU64(payload, &offset, &response->events) ||
            !GetU32(payload, &offset, &response->satisfied) ||
            !GetU32(payload, &offset, &response->violated) ||
            !GetU32(payload, &offset, &response->undetermined) ||
            !GetVerdicts(payload, &offset, &response->verdicts)) {
          return Corrupt("stream close response truncated or bad verdict");
        }
        break;
      case MsgKind::kResponse:
        break;
    }
  }
  if (offset != payload.size()) {
    return Corrupt("trailing bytes after response body");
  }
  return Status::OK();
}

std::string EncodeRequestFrame(const Request& request) {
  return util::EncodeFrame(EncodeRequestPayload(request));
}

std::string EncodeResponseFrame(const Response& response) {
  return util::EncodeFrame(EncodeResponsePayload(response));
}

FrameScan ScanFrame(std::string_view data, size_t* offset,
                    std::string_view* payload) {
  size_t pos = *offset;
  uint32_t length = 0, crc = 0;
  if (!GetU32(data, &pos, &length)) return FrameScan::kNeedMore;
  if (length > kMaxFrameBytes) return FrameScan::kCorrupt;
  if (!GetU32(data, &pos, &crc)) return FrameScan::kNeedMore;
  if (data.size() - pos < length) return FrameScan::kNeedMore;
  const std::string_view body = data.substr(pos, length);
  if (util::Crc32c(body) != crc) return FrameScan::kCorrupt;
  *payload = body;
  *offset = pos + length;
  return FrameScan::kFrame;
}

Status DecodeRequestFrame(std::string_view data, size_t* offset,
                          Request* request) {
  std::string_view payload;
  size_t pos = *offset;
  if (ScanFrame(data, &pos, &payload) != FrameScan::kFrame) {
    return Corrupt("request frame invalid or incomplete");
  }
  CTDB_RETURN_NOT_OK(DecodeRequestPayload(payload, request));
  *offset = pos;
  return Status::OK();
}

Status DecodeResponseFrame(std::string_view data, size_t* offset,
                           Response* response) {
  std::string_view payload;
  size_t pos = *offset;
  if (ScanFrame(data, &pos, &payload) != FrameScan::kFrame) {
    return Corrupt("response frame invalid or incomplete");
  }
  CTDB_RETURN_NOT_OK(DecodeResponsePayload(payload, response));
  *offset = pos;
  return Status::OK();
}

}  // namespace ctdb::net
