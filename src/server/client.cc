#include "server/client.h"

#include <unordered_map>
#include <utility>

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;

/// Client-side slack on top of the server-side deadline: the exchange is
/// bounded even when the request deadline is tight, and an unbounded
/// request still cannot hang the client forever.
constexpr uint32_t kIoSlackMs = 2000;
constexpr uint32_t kNoDeadlineIoMs = 120000;

IoDeadline ExchangeDeadline(const QueryOptions& options) {
  const uint32_t slack =
      options.exchange_slack_ms == 0 ? kIoSlackMs : options.exchange_slack_ms;
  return IoDeadline::After(options.deadline_ms == 0
                               ? kNoDeadlineIoMs
                               : options.deadline_ms + slack);
}

/// Lifts a decoded QueryReply (plus its header flags) into the client's
/// result struct — one place for the degraded/partial/coverage mapping.
QueryClient::QueryResult ToQueryResult(protocol::QueryReply decoded,
                                       const MessageHeader& header) {
  QueryClient::QueryResult out;
  out.row_count = decoded.row_count;
  out.objids = std::move(decoded.objids);
  out.rows_scanned = decoded.rows_scanned;
  out.pages_fetched = decoded.pages_fetched;
  out.pages_read = decoded.pages_read;
  out.pages_skipped = decoded.pages_skipped;
  out.degraded =
      decoded.degraded || (header.flags & protocol::kFlagDegraded) != 0;
  out.partial = (header.flags & protocol::kFlagPartial) != 0;
  out.shards_answered = decoded.shards_answered;
  out.shards_total = decoded.shards_total;
  out.shards_mask = decoded.shards_mask;
  out.chosen_path = std::move(decoded.chosen_path);
  return out;
}

}  // namespace

Result<QueryClient> QueryClient::Connect(const std::string& host,
                                         uint16_t port,
                                         uint64_t connect_timeout_ms) {
  auto sock = TcpConnect(host, port, connect_timeout_ms);
  if (!sock.ok()) {
    return AnnotateStatus(sock.status(), "QueryClient::Connect");
  }
  return QueryClient(std::move(*sock));
}

Status QueryClient::MapExchangeFailure(Status st, const Options& options,
                                       const IoDeadline& deadline) {
  // A request that carried a deadline and whose exchange ran out the
  // clock is a deadline miss, not generic unavailability: the caller set
  // the bound, so tell them it elapsed. (Without a caller deadline the
  // long safety bound expiring stays kUnavailable — nobody asked for it.)
  if (options.deadline_ms != 0 && st.code() == StatusCode::kUnavailable &&
      deadline.Expired()) {
    return Status::DeadlineExceeded("deadline of " +
                                    std::to_string(options.deadline_ms) +
                                    "ms elapsed awaiting reply");
  }
  // A reply frame that failed CRC or framing checks means the bytes were
  // damaged in transit, not that the backend answered kCorruption: the
  // connection is closed either way, so surface it as a retryable
  // transport fault rather than a semantic data-corruption verdict.
  if (st.code() == StatusCode::kCorruption ||
      st.code() == StatusCode::kInvalidArgument) {
    return Status::IOError("reply frame damaged in transit: " + st.message());
  }
  return st;
}

uint32_t QueryClient::RequestFlags(const Options& options) {
  uint32_t flags = 0;
  if (options.skip_corrupt) flags |= protocol::kFlagSkipCorrupt;
  if (options.force_full_scan) {
    flags |= protocol::kFlagHintFullScan;
  } else if (options.force_index) {
    flags |= protocol::kFlagHintIndex;
  }
  if (options.allow_partial) flags |= protocol::kFlagAllowPartial;
  return flags;
}

Status QueryClient::RoundTrip(MessageType type, const Options& options,
                              const std::vector<uint8_t>& body,
                              std::vector<uint8_t>* reply_payload,
                              MessageHeader* reply_header,
                              size_t* body_offset) {
  if (!connected()) {
    return Status::FailedPrecondition("client connection is closed");
  }
  const uint64_t request_id = next_request_id_++;

  std::vector<uint8_t> payload;
  WireWriter w(&payload);
  MessageHeader header;
  header.type = type;
  header.flags = RequestFlags(options);
  header.request_id = request_id;
  EncodeMessageHeader(header, &w);
  w.PutU32(options.deadline_ms);  // RequestPrefix
  w.PutRaw(body.data(), body.size());

  const IoDeadline deadline = ExchangeDeadline(options);
  Status st = protocol::WriteFrame(&sock_, deadline, payload);
  if (st.ok()) {
    st = protocol::ReadFrame(&sock_, deadline, reply_payload);
  }
  if (!st.ok()) {
    // The stream is desynchronized (partial frame, timeout, close): this
    // connection cannot be trusted for another exchange. Poison it rather
    // than closing the fd here — the fd is only closed by the owning
    // thread (destruction, reconnect), so a cross-thread Abort() can
    // never race a close onto a recycled descriptor.
    poisoned_ = true;
    return AnnotateStatus(MapExchangeFailure(std::move(st), options, deadline),
                          "QueryClient");
  }

  WireReader r(*reply_payload);
  MDS_RETURN_NOT_OK(DecodeMessageHeader(&r, reply_header));
  if ((reply_header->flags & protocol::kFlagReply) == 0 ||
      reply_header->type != type ||
      reply_header->request_id != request_id) {
    poisoned_ = true;
    return Status::Internal("protocol: reply does not match request");
  }
  Status remote;
  MDS_RETURN_NOT_OK(protocol::DecodeStatus(&r, &remote));
  MDS_RETURN_NOT_OK(remote);
  *body_offset = reply_payload->size() - r.remaining();
  return Status::OK();
}

Result<uint64_t> QueryClient::PointCount(const Box& box,
                                         const Options& options) {
  auto result = BoxQueryInternal(box, 0, options, MessageType::kPointCount);
  if (!result.ok()) return result.status();
  return result->row_count;
}

Result<QueryClient::QueryResult> QueryClient::PointCountDetailed(
    const Box& box, const Options& options) {
  return BoxQueryInternal(box, 0, options, MessageType::kPointCount);
}

Result<QueryClient::QueryResult> QueryClient::BoxQuery(const Box& box,
                                                       uint64_t limit,
                                                       const Options& options) {
  return BoxQueryInternal(box, limit, options, MessageType::kBoxQuery);
}

Result<QueryClient::QueryResult> QueryClient::BoxQueryInternal(
    const Box& box, uint64_t limit, const Options& options,
    protocol::MessageType type) {
  protocol::BoxQueryRequest req;
  req.lo = box.lo();
  req.hi = box.hi();
  req.limit = limit;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeBoxQueryRequest(req, &w);

  std::vector<uint8_t> reply;
  protocol::MessageHeader header;
  size_t offset = 0;
  MDS_RETURN_NOT_OK(RoundTrip(type, options, body, &reply, &header, &offset));

  WireReader r(reply.data() + offset, reply.size() - offset);
  protocol::QueryReply decoded;
  MDS_RETURN_NOT_OK(DecodeQueryReply(&r, &decoded));
  return ToQueryResult(std::move(decoded), header);
}

Result<QueryClient::KnnResult> QueryClient::Knn(
    const std::vector<double>& point, uint32_t k, const Options& options) {
  protocol::KnnRequest req;
  req.point = point;
  req.k = k;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeKnnRequest(req, &w);

  std::vector<uint8_t> reply;
  protocol::MessageHeader header;
  size_t offset = 0;
  MDS_RETURN_NOT_OK(
      RoundTrip(MessageType::kKnn, options, body, &reply, &header, &offset));

  WireReader r(reply.data() + offset, reply.size() - offset);
  protocol::KnnReply decoded;
  MDS_RETURN_NOT_OK(DecodeKnnReply(&r, &decoded));
  KnnResult out;
  out.neighbors = std::move(decoded.neighbors);
  out.degraded = (header.flags & protocol::kFlagDegraded) != 0;
  out.partial = (header.flags & protocol::kFlagPartial) != 0;
  out.shards_answered = decoded.shards_answered;
  out.shards_total = decoded.shards_total;
  out.shards_mask = decoded.shards_mask;
  return out;
}

Result<QueryClient::QueryResult> QueryClient::TableSample(
    const Box& box, double percent, uint64_t n, uint64_t seed,
    const Options& options) {
  protocol::TableSampleRequest req;
  req.lo = box.lo();
  req.hi = box.hi();
  req.percent = percent;
  req.n = n;
  req.seed = seed;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeTableSampleRequest(req, &w);

  std::vector<uint8_t> reply;
  protocol::MessageHeader header;
  size_t offset = 0;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kTableSample, options, body, &reply,
                              &header, &offset));

  WireReader r(reply.data() + offset, reply.size() - offset);
  protocol::QueryReply decoded;
  MDS_RETURN_NOT_OK(DecodeQueryReply(&r, &decoded));
  return ToQueryResult(std::move(decoded), header);
}

std::vector<Result<uint64_t>> QueryClient::PointCountPipeline(
    const std::vector<Box>& boxes, const Options& options) {
  std::vector<Result<QueryResult>> replies =
      PipelineInternal(boxes, 0, options, MessageType::kPointCount);
  std::vector<Result<uint64_t>> out;
  out.reserve(replies.size());
  for (auto& r : replies) {
    if (r.ok()) {
      out.push_back(r->row_count);
    } else {
      out.push_back(r.status());
    }
  }
  return out;
}

std::vector<Result<QueryClient::QueryResult>> QueryClient::BoxQueryPipeline(
    const std::vector<Box>& boxes, uint64_t limit, const Options& options) {
  return PipelineInternal(boxes, limit, options, MessageType::kBoxQuery);
}

std::vector<Result<QueryClient::QueryResult>> QueryClient::PipelineInternal(
    const std::vector<Box>& boxes, uint64_t limit, const Options& options,
    MessageType type) {
  std::vector<Result<QueryResult>> out(
      boxes.size(), Result<QueryResult>(Status::Internal("no reply")));
  if (boxes.empty()) return out;
  if (!connected()) {
    const Status closed =
        Status::FailedPrecondition("client connection is closed");
    for (auto& slot : out) slot = closed;
    return out;
  }

  // Frame every request back-to-back into one wire buffer: the whole
  // batch leaves in one write (one RTT of request latency for k
  // requests), and the server's frame parser sees them as one
  // contiguous pipelined burst it can gang.
  std::unordered_map<uint64_t, size_t> slot_of_id;
  slot_of_id.reserve(boxes.size());
  std::vector<uint8_t> wire;
  for (size_t i = 0; i < boxes.size(); ++i) {
    const uint64_t request_id = next_request_id_++;
    slot_of_id.emplace(request_id, i);

    protocol::BoxQueryRequest req;
    req.lo = boxes[i].lo();
    req.hi = boxes[i].hi();
    req.limit = limit;

    std::vector<uint8_t> payload;
    WireWriter w(&payload);
    MessageHeader header;
    header.type = type;
    header.flags = RequestFlags(options);
    header.request_id = request_id;
    EncodeMessageHeader(header, &w);
    w.PutU32(options.deadline_ms);  // RequestPrefix
    protocol::EncodeBoxQueryRequest(req, &w);
    protocol::AppendFrame(payload, &wire);
  }

  // One deadline bounds the whole exchange, like RoundTrip's does one.
  const IoDeadline deadline = ExchangeDeadline(options);
  Status st = sock_.WriteFull(wire.data(), wire.size(), deadline);

  // Read until every request has its reply. Replies are matched by
  // request id: the contract is per-connection completeness, not order
  // (a future server is free to interleave).
  while (st.ok() && !slot_of_id.empty()) {
    std::vector<uint8_t> reply;
    st = protocol::ReadFrame(&sock_, deadline, &reply);
    if (!st.ok()) break;

    WireReader r(reply);
    MessageHeader header;
    st = DecodeMessageHeader(&r, &header);
    if (!st.ok()) break;
    if ((header.flags & protocol::kFlagReply) == 0 || header.type != type) {
      st = Status::Internal("protocol: reply does not match request");
      break;
    }
    auto it = slot_of_id.find(header.request_id);
    if (it == slot_of_id.end()) {
      st = Status::Internal("protocol: reply for unknown request id");
      break;
    }
    const size_t slot = it->second;
    slot_of_id.erase(it);

    // Per-slot failures (bad request, overload shed, deadline expiry on
    // the server) consume the reply and fail only this slot.
    Status remote;
    Status decode = protocol::DecodeStatus(&r, &remote);
    if (!decode.ok()) {
      st = std::move(decode);
      break;
    }
    if (!remote.ok()) {
      out[slot] = AnnotateStatus(std::move(remote), "QueryClient");
      continue;
    }
    protocol::QueryReply decoded;
    decode = DecodeQueryReply(&r, &decoded);
    if (!decode.ok()) {
      st = std::move(decode);
      break;
    }
    out[slot] = ToQueryResult(std::move(decoded), header);
  }

  if (!st.ok()) {
    // Transport failure mid-batch: the stream is desynchronized. Poison
    // the connection and fail every slot still awaiting its reply.
    poisoned_ = true;
    const Status failed = AnnotateStatus(
        MapExchangeFailure(std::move(st), options, deadline), "QueryClient");
    for (const auto& entry : slot_of_id) out[entry.second] = failed;
  }
  return out;
}

Result<QueryClient::HealthResult> QueryClient::Health(const Options& options) {
  std::vector<uint8_t> reply;
  protocol::MessageHeader header;
  size_t offset = 0;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kHealth, options, {}, &reply,
                              &header, &offset));
  WireReader r(reply.data() + offset, reply.size() - offset);
  protocol::HealthReply decoded;
  MDS_RETURN_NOT_OK(DecodeHealthReply(&r, &decoded));
  HealthResult out;
  out.draining =
      decoded.draining != 0 || (header.flags & protocol::kFlagDraining) != 0;
  out.served_rows = decoded.served_rows;
  out.dim = decoded.dim;
  out.routing_box = std::move(decoded.routing_box);
  return out;
}

Result<protocol::ReloadReply> QueryClient::Reload(const std::string& path,
                                                  const Options& options) {
  protocol::ReloadRequest req;
  req.path = path;
  std::vector<uint8_t> body;
  WireWriter w(&body);
  protocol::EncodeReloadRequest(req, &w);

  std::vector<uint8_t> reply;
  protocol::MessageHeader header;
  size_t offset = 0;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kReload, options, body, &reply,
                              &header, &offset));
  WireReader r(reply.data() + offset, reply.size() - offset);
  protocol::ReloadReply decoded;
  MDS_RETURN_NOT_OK(DecodeReloadReply(&r, &decoded));
  return decoded;
}

Result<protocol::ServerStatsSnapshot> QueryClient::ServerStats(
    const Options& options) {
  std::vector<uint8_t> reply;
  protocol::MessageHeader header;
  size_t offset = 0;
  MDS_RETURN_NOT_OK(RoundTrip(MessageType::kStats, options, {}, &reply,
                              &header, &offset));
  WireReader r(reply.data() + offset, reply.size() - offset);
  protocol::ServerStatsSnapshot decoded;
  MDS_RETURN_NOT_OK(DecodeServerStats(&r, &decoded));
  return decoded;
}

}  // namespace mds
