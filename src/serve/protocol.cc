#include "serve/protocol.h"

#include <utility>

#include "base/byte_codec.h"
#include "base/strings.h"

namespace car {
namespace serve {

namespace {

// Wire tags. Append-only: never renumber, never reuse.
enum class RequestTag : uint8_t {
  kPing = 1,
  kOpen = 2,
  kQuery = 3,
  kMutate = 4,
  kClose = 5,
  kStats = 6,
  kShutdown = 7,
};

enum class ResponseTag : uint8_t {
  kPong = 1,
  kOpened = 2,
  kAnswers = 3,
  kError = 4,
  kClosed = 5,
  kStats = 6,
  kShuttingDown = 7,
};

/// The wire's composite fields over the shared byte primitives.
class Writer : public ByteWriter {
 public:
  void PutStringList(const std::vector<std::string>& list) {
    PutU32(static_cast<uint32_t>(list.size()));
    for (const std::string& entry : list) PutString(entry);
  }
  void PutByteList(const std::vector<uint8_t>& bytes) {
    PutU32(static_cast<uint32_t>(bytes.size()));
    for (uint8_t byte : bytes) PutU8(byte);
  }
  void PutLimits(const AdmissionLimits& limits) {
    PutU64(limits.deadline_ms);
    PutU64(limits.work_budget);
    PutU64(limits.memory_budget_bytes);
    PutU64(limits.inject_after);
  }
  void PutStatsDelta(const QueryStatsDelta& stats) {
    PutU64(stats.probes);
    PutU64(stats.memo_hits);
    PutU64(stats.closure_hits);
    PutU64(stats.cluster_local);
    PutU64(stats.warm_starts);
    PutU64(stats.fallbacks);
  }
};

/// Total reader of the wire's composite fields: list counts are bounded
/// by the remaining bytes before any allocation, and every enum byte is
/// range-checked.
class Reader : public ByteReader {
 public:
  using ByteReader::ByteReader;

  Status ReadStringList(std::vector<std::string>* list) {
    uint32_t count = 0;
    CAR_RETURN_IF_ERROR(ReadU32(&count));
    // Each entry carries at least its 4-byte length prefix.
    if (static_cast<uint64_t>(count) * 4 > remaining()) {
      return ParseError(StrCat("list count ", count, " exceeds ",
                               remaining(), " remaining bytes"));
    }
    list->clear();
    list->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      std::string entry;
      CAR_RETURN_IF_ERROR(ReadString(&entry));
      list->push_back(std::move(entry));
    }
    return Status::Ok();
  }
  Status ReadAnswerBytes(std::vector<uint8_t>* bytes) {
    uint32_t count = 0;
    CAR_RETURN_IF_ERROR(ReadU32(&count));
    if (count > remaining()) {
      return ParseError(StrCat("answer count ", count, " exceeds ",
                               remaining(), " remaining bytes"));
    }
    bytes->clear();
    bytes->reserve(count);
    for (uint32_t i = 0; i < count; ++i) {
      uint8_t byte = 0;
      CAR_RETURN_IF_ERROR(ReadU8(&byte));
      if (byte > 1) {
        return ParseError(
            StrCat("bad answer byte ", static_cast<int>(byte)));
      }
      bytes->push_back(byte);
    }
    return Status::Ok();
  }
  Status ReadLimits(AdmissionLimits* limits) {
    CAR_RETURN_IF_ERROR(ReadU64(&limits->deadline_ms));
    CAR_RETURN_IF_ERROR(ReadU64(&limits->work_budget));
    CAR_RETURN_IF_ERROR(ReadU64(&limits->memory_budget_bytes));
    return ReadU64(&limits->inject_after);
  }
  Status ReadStatsDelta(QueryStatsDelta* stats) {
    CAR_RETURN_IF_ERROR(ReadU64(&stats->probes));
    CAR_RETURN_IF_ERROR(ReadU64(&stats->memo_hits));
    CAR_RETURN_IF_ERROR(ReadU64(&stats->closure_hits));
    CAR_RETURN_IF_ERROR(ReadU64(&stats->cluster_local));
    CAR_RETURN_IF_ERROR(ReadU64(&stats->warm_starts));
    return ReadU64(&stats->fallbacks);
  }
  Status ReadLimitKind(LimitKind* kind) {
    uint8_t byte = 0;
    CAR_RETURN_IF_ERROR(ReadU8(&byte));
    if (byte > LimitKindToWire(LimitKind::kMaxCandidates)) {
      return ParseError(
          StrCat("bad limit kind ", static_cast<int>(byte)));
    }
    *kind = LimitKindFromWire(byte);
    return Status::Ok();
  }
  Status ReadStatusCode(StatusCode* code) {
    uint8_t byte = 0;
    CAR_RETURN_IF_ERROR(ReadU8(&byte));
    if (byte == 0 || byte > static_cast<uint8_t>(StatusCode::kCancelled)) {
      return ParseError(
          StrCat("bad status code ", static_cast<int>(byte)));
    }
    *code = static_cast<StatusCode>(byte);
    return Status::Ok();
  }
};

}  // namespace

// --- Requests -------------------------------------------------------------

std::string EncodeRequest(const Request& request) {
  Writer writer;
  std::visit(
      [&writer](const auto& message) {
        using T = std::decay_t<decltype(message)>;
        if constexpr (std::is_same_v<T, PingRequest>) {
          writer.PutU8(static_cast<uint8_t>(RequestTag::kPing));
          writer.PutU64(message.token);
        } else if constexpr (std::is_same_v<T, OpenRequest>) {
          writer.PutU8(static_cast<uint8_t>(RequestTag::kOpen));
          writer.PutString(message.name);
          writer.PutString(message.schema_text);
        } else if constexpr (std::is_same_v<T, QueryRequest>) {
          writer.PutU8(static_cast<uint8_t>(RequestTag::kQuery));
          writer.PutString(message.name);
          writer.PutLimits(message.limits);
          writer.PutStringList(message.queries);
        } else if constexpr (std::is_same_v<T, MutateRequest>) {
          writer.PutU8(static_cast<uint8_t>(RequestTag::kMutate));
          writer.PutString(message.name);
          writer.PutString(message.schema_text);
        } else if constexpr (std::is_same_v<T, CloseRequest>) {
          writer.PutU8(static_cast<uint8_t>(RequestTag::kClose));
          writer.PutString(message.name);
        } else if constexpr (std::is_same_v<T, StatsRequest>) {
          writer.PutU8(static_cast<uint8_t>(RequestTag::kStats));
        } else {
          static_assert(std::is_same_v<T, ShutdownRequest>);
          writer.PutU8(static_cast<uint8_t>(RequestTag::kShutdown));
        }
      },
      request);
  return writer.Take();
}

Result<Request> DecodeRequest(std::string_view payload) {
  Reader reader(payload);
  uint8_t tag = 0;
  CAR_RETURN_IF_ERROR(reader.ReadU8(&tag));
  switch (static_cast<RequestTag>(tag)) {
    case RequestTag::kPing: {
      PingRequest message;
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.token));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(std::move(message));
    }
    case RequestTag::kOpen: {
      OpenRequest message;
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.name));
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.schema_text));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(std::move(message));
    }
    case RequestTag::kQuery: {
      QueryRequest message;
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.name));
      CAR_RETURN_IF_ERROR(reader.ReadLimits(&message.limits));
      CAR_RETURN_IF_ERROR(reader.ReadStringList(&message.queries));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(std::move(message));
    }
    case RequestTag::kMutate: {
      MutateRequest message;
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.name));
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.schema_text));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(std::move(message));
    }
    case RequestTag::kClose: {
      CloseRequest message;
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.name));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(std::move(message));
    }
    case RequestTag::kStats: {
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(StatsRequest{});
    }
    case RequestTag::kShutdown: {
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Request(ShutdownRequest{});
    }
  }
  return InvalidArgument(
      StrCat("unknown request tag ", static_cast<int>(tag)));
}

// --- Responses ------------------------------------------------------------

std::string EncodeResponse(const Response& response) {
  Writer writer;
  std::visit(
      [&writer](const auto& message) {
        using T = std::decay_t<decltype(message)>;
        if constexpr (std::is_same_v<T, PongResponse>) {
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kPong));
          writer.PutU64(message.token);
        } else if constexpr (std::is_same_v<T, OpenedResponse>) {
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kOpened));
          writer.PutU64(message.fingerprint);
          writer.PutU32(message.num_classes);
          writer.PutU32(message.num_relations);
          writer.PutBool(message.warm);
        } else if constexpr (std::is_same_v<T, AnswersResponse>) {
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kAnswers));
          writer.PutBool(message.degraded);
          writer.PutByteList(message.answers);
          writer.PutU8(LimitKindToWire(message.limit_kind));
          writer.PutString(message.limit_phase);
          writer.PutU64(message.limit_value);
          writer.PutU64(message.limit_count);
          writer.PutStatsDelta(message.stats);
        } else if constexpr (std::is_same_v<T, ErrorResponse>) {
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kError));
          writer.PutU8(static_cast<uint8_t>(message.code));
          writer.PutString(message.message);
        } else if constexpr (std::is_same_v<T, ClosedResponse>) {
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kClosed));
          writer.PutBool(message.existed);
        } else if constexpr (std::is_same_v<T, StatsResponse>) {
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kStats));
          writer.PutU64(message.sessions);
          writer.PutU64(message.resident_bytes);
          writer.PutU64(message.opens);
          writer.PutU64(message.warm_opens);
          writer.PutU64(message.replacements);
          writer.PutU64(message.evictions);
          writer.PutU64(message.lookup_hits);
          writer.PutU64(message.lookup_misses);
          writer.PutU64(message.requests);
          writer.PutU64(message.query_batches);
          writer.PutU64(message.queries);
          writer.PutU64(message.degraded);
          writer.PutU64(message.errors);
        } else {
          static_assert(std::is_same_v<T, ShuttingDownResponse>);
          writer.PutU8(static_cast<uint8_t>(ResponseTag::kShuttingDown));
        }
      },
      response);
  return writer.Take();
}

Result<Response> DecodeResponse(std::string_view payload) {
  Reader reader(payload);
  uint8_t tag = 0;
  CAR_RETURN_IF_ERROR(reader.ReadU8(&tag));
  switch (static_cast<ResponseTag>(tag)) {
    case ResponseTag::kPong: {
      PongResponse message;
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.token));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(std::move(message));
    }
    case ResponseTag::kOpened: {
      OpenedResponse message;
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.fingerprint));
      CAR_RETURN_IF_ERROR(reader.ReadU32(&message.num_classes));
      CAR_RETURN_IF_ERROR(reader.ReadU32(&message.num_relations));
      CAR_RETURN_IF_ERROR(reader.ReadBool(&message.warm));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(std::move(message));
    }
    case ResponseTag::kAnswers: {
      AnswersResponse message;
      CAR_RETURN_IF_ERROR(reader.ReadBool(&message.degraded));
      CAR_RETURN_IF_ERROR(reader.ReadAnswerBytes(&message.answers));
      CAR_RETURN_IF_ERROR(reader.ReadLimitKind(&message.limit_kind));
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.limit_phase));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.limit_value));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.limit_count));
      CAR_RETURN_IF_ERROR(reader.ReadStatsDelta(&message.stats));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(std::move(message));
    }
    case ResponseTag::kError: {
      ErrorResponse message;
      CAR_RETURN_IF_ERROR(reader.ReadStatusCode(&message.code));
      CAR_RETURN_IF_ERROR(reader.ReadString(&message.message));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(std::move(message));
    }
    case ResponseTag::kClosed: {
      ClosedResponse message;
      CAR_RETURN_IF_ERROR(reader.ReadBool(&message.existed));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(std::move(message));
    }
    case ResponseTag::kStats: {
      StatsResponse message;
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.sessions));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.resident_bytes));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.opens));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.warm_opens));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.replacements));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.evictions));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.lookup_hits));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.lookup_misses));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.requests));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.query_batches));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.queries));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.degraded));
      CAR_RETURN_IF_ERROR(reader.ReadU64(&message.errors));
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(std::move(message));
    }
    case ResponseTag::kShuttingDown: {
      CAR_RETURN_IF_ERROR(reader.ExpectConsumed());
      return Response(ShuttingDownResponse{});
    }
  }
  return InvalidArgument(
      StrCat("unknown response tag ", static_cast<int>(tag)));
}

// --- Framing --------------------------------------------------------------

Result<std::string> EncodeFrame(std::string_view payload,
                                uint32_t max_payload) {
  if (payload.empty()) return InvalidArgument("empty frame payload");
  if (payload.size() > max_payload) {
    return ResourceExhausted(
        StrCat("frame payload of ", payload.size(), " bytes exceeds the ",
               max_payload, "-byte cap"));
  }
  Writer writer;
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  std::string frame = writer.Take();
  frame.append(payload);
  return frame;
}

FrameReader::FrameReader(uint32_t max_payload)
    : max_payload_(max_payload) {}

void FrameReader::Append(const char* data, size_t size) {
  // Compact lazily: drop consumed bytes once they dominate the buffer so
  // a long-lived connection does not grow its buffer without bound.
  if (consumed_ > 0 && consumed_ >= buffer_.size() / 2) {
    buffer_.erase(0, consumed_);
    consumed_ = 0;
  }
  buffer_.append(data, size);
}

Result<bool> FrameReader::Next(std::string* payload) {
  if (!error_.ok()) return error_;
  if (buffer_.size() - consumed_ < 4) return false;
  uint32_t length = 0;
  for (int i = 0; i < 4; ++i) {
    length |= static_cast<uint32_t>(
                  static_cast<uint8_t>(buffer_[consumed_ + i]))
              << (8 * i);
  }
  if (length == 0) {
    error_ = ParseError("zero-length frame");
    return error_;
  }
  if (length > max_payload_) {
    error_ = ParseError(StrCat("frame payload of ", length,
                               " bytes exceeds the ", max_payload_,
                               "-byte cap"));
    return error_;
  }
  if (buffer_.size() - consumed_ < 4 + static_cast<size_t>(length)) {
    return false;
  }
  payload->assign(buffer_, consumed_ + 4, length);
  consumed_ += 4 + static_cast<size_t>(length);
  return true;
}

}  // namespace serve
}  // namespace car
