#include "server/coordinator.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <random>
#include <utility>

namespace mds {

namespace {

using protocol::MessageHeader;
using protocol::MessageType;

int64_t SteadyNowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Failover-retryable statuses: kUnavailable covers overload sheds,
/// draining backends, refused connects and mid-frame closes; kIOError
/// covers transport faults (e.g. a write onto a connection whose peer
/// died); kNotFound is the transport's clean-EOF code (protocol.h) — a
/// replica that crashed or reaped an idle pooled connection closes it at
/// a frame boundary, and mdsd never sends kNotFound as a reply status, so
/// during an exchange it always means "peer went away", not a semantic
/// answer. Anything else is an answer every replica would repeat (or, for
/// kDeadlineExceeded, a bound the client chose).
bool RetryableBackendFailure(const Status& status) {
  return status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kNotFound;
}

/// Exhaustion failures: RetryableBackendFailure plus a leg read-deadline
/// expiry. The leg bound is the coordinator's own subdivision of the
/// client's budget, so a timed-out leg may still be answered by another
/// replica within what remains — and a shard that fails this way under
/// allow_partial degrades the reply instead of failing it. A semantic
/// error (InvalidArgument, Corruption-as-answer, ...) is neither.
bool ExhaustionFailure(const Status& status) {
  return RetryableBackendFailure(status) ||
         status.code() == StatusCode::kDeadlineExceeded;
}

/// Leg-pool size: fanout_threads, or derived from the replica count —
/// legs block on network I/O (bounded by the sub-request deadline), so
/// the pool is sized to the replicas, not the cores.
unsigned LegThreads(const ShardMap& map, const CoordinatorConfig& config) {
  if (config.fanout_threads != 0) return config.fanout_threads;
  size_t total_replicas = 0;
  for (const auto& replicas : map.shards) total_replicas += replicas.size();
  return static_cast<unsigned>(
      std::min<size_t>(32, std::max<size_t>(4, 2 * total_replicas)));
}

/// The front end mdsc runs on: mdsd's, minus the response cache (nothing
/// would invalidate it when a backend reloads behind mdsc's back), minus
/// pipelined ganging (every request scatters on its own) and minus worker
/// threads (Coordinator::ExecutesInline: legs run on the leg pool).
ServerConfig FrontEndConfig(const CoordinatorConfig& config) {
  ServerConfig front;
  front.port = config.port;
  front.max_in_flight = config.max_in_flight;
  front.max_connections = config.max_connections;
  front.idle_timeout_ms = config.idle_timeout_ms;
  front.pipeline_batch_max = 1;
  return front;
}

/// A backend's published routing box, or nullopt when it sent none (or
/// one of the wrong dimension).
std::optional<Box> ShardBox(const protocol::RoutingBox& wire, uint32_t dim) {
  if (!wire.known() || wire.lo.size() != dim) return std::nullopt;
  return Box(wire.lo, wire.hi);
}

/// Relative slack on the wave-two bound: MINDIST² and a backend's d2 sum
/// their per-axis squares in different orders, so a row exactly at the
/// bound may compute a few ulps below its shard's MINDIST².
constexpr double kWaveTwoSlack = 1e-9;

protocol::QueryReply FromClientResult(QueryClient::QueryResult result) {
  protocol::QueryReply out;
  out.row_count = result.row_count;
  out.objids = std::move(result.objids);
  out.rows_scanned = result.rows_scanned;
  out.pages_fetched = result.pages_fetched;
  out.pages_read = result.pages_read;
  out.pages_skipped = result.pages_skipped;
  out.degraded = result.degraded;
  out.chosen_path = std::move(result.chosen_path);
  return out;
}

}  // namespace

// --- shard map -------------------------------------------------------------

Result<ShardMap> ParseShardMap(const std::string& text) {
  ShardMap map;
  std::vector<std::string> shard_specs;
  std::string current;
  for (char c : text) {
    if (c == ';' || c == '\n') {
      shard_specs.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  shard_specs.push_back(current);

  for (const std::string& raw : shard_specs) {
    // Trim whitespace; skip blank and comment lines.
    const size_t b = raw.find_first_not_of(" \t\r");
    if (b == std::string::npos) continue;
    const size_t e = raw.find_last_not_of(" \t\r");
    const std::string spec = raw.substr(b, e - b + 1);
    if (spec[0] == '#') continue;

    std::vector<BackendAddress> replicas;
    size_t pos = 0;
    while (pos <= spec.size()) {
      const size_t comma = spec.find(',', pos);
      std::string endpoint = spec.substr(
          pos, comma == std::string::npos ? std::string::npos : comma - pos);
      pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;

      const size_t eb = endpoint.find_first_not_of(" \t");
      if (eb == std::string::npos) {
        return Status::InvalidArgument("ParseShardMap: empty endpoint in '" +
                                       spec + "'");
      }
      const size_t ee = endpoint.find_last_not_of(" \t");
      endpoint = endpoint.substr(eb, ee - eb + 1);

      const size_t colon = endpoint.rfind(':');
      if (colon == std::string::npos || colon == 0 ||
          colon + 1 >= endpoint.size()) {
        return Status::InvalidArgument("ParseShardMap: endpoint '" + endpoint +
                                       "' is not host:port");
      }
      BackendAddress addr;
      addr.host = endpoint.substr(0, colon);
      unsigned long port = 0;
      try {
        size_t used = 0;
        port = std::stoul(endpoint.substr(colon + 1), &used);
        if (used != endpoint.size() - colon - 1) port = 0;
      } catch (...) {
        port = 0;
      }
      if (port == 0 || port > 65535) {
        return Status::InvalidArgument("ParseShardMap: bad port in '" +
                                       endpoint + "'");
      }
      addr.port = static_cast<uint16_t>(port);
      replicas.push_back(std::move(addr));
    }
    map.shards.push_back(std::move(replicas));
  }
  if (map.shards.empty()) {
    return Status::InvalidArgument("ParseShardMap: no shards");
  }
  return map;
}

// --- merge helpers ---------------------------------------------------------

std::vector<protocol::WireNeighbor> MergeKnnNeighbors(
    const std::vector<std::vector<protocol::WireNeighbor>>& per_shard,
    uint32_t k) {
  std::vector<protocol::WireNeighbor> out;
  std::vector<size_t> cursor(per_shard.size(), 0);
  auto less = [](const protocol::WireNeighbor& a,
                 const protocol::WireNeighbor& b) {
    return a.squared_distance < b.squared_distance ||
           (a.squared_distance == b.squared_distance && a.id < b.id);
  };
  while (out.size() < k) {
    size_t best = per_shard.size();
    for (size_t s = 0; s < per_shard.size(); ++s) {
      if (cursor[s] >= per_shard[s].size()) continue;
      if (best == per_shard.size() ||
          less(per_shard[s][cursor[s]], per_shard[best][cursor[best]])) {
        best = s;
      }
    }
    if (best == per_shard.size()) break;  // every list exhausted
    out.push_back(per_shard[best][cursor[best]++]);
  }
  return out;
}

protocol::QueryReply MergeQueryReplies(
    std::vector<protocol::QueryReply> per_shard, uint64_t limit) {
  protocol::QueryReply out;
  bool first = true;
  bool mixed_path = false;
  for (protocol::QueryReply& shard : per_shard) {
    out.row_count += shard.row_count;
    out.rows_scanned += shard.rows_scanned;
    out.pages_fetched += shard.pages_fetched;
    out.pages_read += shard.pages_read;
    out.pages_skipped += shard.pages_skipped;
    out.degraded = out.degraded || shard.degraded;
    if (first) {
      out.chosen_path = shard.chosen_path;
      first = false;
    } else if (shard.chosen_path != out.chosen_path) {
      mixed_path = true;
    }
    if (out.objids.empty()) {
      out.objids = std::move(shard.objids);
    } else {
      out.objids.insert(out.objids.end(), shard.objids.begin(),
                        shard.objids.end());
    }
  }
  if (mixed_path) out.chosen_path = "mixed";
  if (limit != 0 && out.objids.size() > limit) out.objids.resize(limit);
  return out;
}

// --- lifecycle -------------------------------------------------------------

Coordinator::Coordinator(const ShardMap& map, const CoordinatorConfig& config)
    : config_(config),
      leg_threads_(LegThreads(map, config)),
      rng_(config.jitter_seed != 0 ? config.jitter_seed
                                   : std::random_device{}()),
      front_(this, FrontEndConfig(config)) {
  shards_.reserve(map.shards.size());
  for (const auto& replicas : map.shards) {
    auto shard = std::make_unique<Shard>();
    // The retry bucket starts full so cold-start failovers (a replica
    // down before any traffic has accrued tokens) are never denied.
    shard->retry_budget_milli.store(
        static_cast<int64_t>(config_.retry_budget_cap) * 1000,
        std::memory_order_relaxed);
    for (const BackendAddress& addr : replicas) {
      auto replica = std::make_unique<Replica>();
      replica->addr = addr;
      shard->replicas.push_back(std::move(replica));
    }
    shards_.push_back(std::move(shard));
  }
  routing_ = std::make_shared<const Routing>(shards_.size());
}

Coordinator::~Coordinator() { Shutdown(); }

Status Coordinator::Start() {
  if (legs_ != nullptr) {
    return Status::FailedPrecondition("Coordinator started twice");
  }
  if (shards_.empty()) {
    return Status::InvalidArgument("Coordinator: empty shard map");
  }
  for (const auto& shard : shards_) {
    if (shard->replicas.empty()) {
      return Status::InvalidArgument("Coordinator: shard with no replicas");
    }
  }

  // Probe each shard: the first reachable replica (in preference order)
  // reports the shard's row count and dimension. Probes do not touch the
  // failure/backoff state — health is driven by request traffic.
  QueryOptions probe;
  probe.deadline_ms = config_.sub_deadline_ms;
  served_rows_ = 0;
  dim_ = 0;
  auto routing = std::make_shared<Routing>(shards_.size());
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    Status last = Status::Unavailable("no replica probed");
    bool probed = false;
    for (const auto& replica : shard->replicas) {
      auto client = QueryClient::Connect(
          replica->addr.host, replica->addr.port, config_.connect_timeout_ms);
      if (!client.ok()) {
        last = client.status();
        continue;
      }
      auto health = client->Health(probe);
      if (!health.ok()) {
        last = health.status();
        continue;
      }
      shard->served_rows = health->served_rows;
      if (dim_ == 0) {
        dim_ = health->dim;
      } else if (health->dim != dim_) {
        return Status::InvalidArgument(
            "Coordinator: shard " + std::to_string(s) + " serves dimension " +
            std::to_string(health->dim) + ", expected " + std::to_string(dim_));
      }
      (*routing)[s] = ShardBox(health->routing_box, dim_);
      ReleaseClient(replica.get(), std::move(*client));
      probed = true;
      break;
    }
    if (!probed) {
      return AnnotateStatus(last, "Coordinator: shard " + std::to_string(s) +
                                      " has no reachable replica");
    }
    served_rows_ += shard->served_rows;
  }
  SetRouting(std::move(routing));

  legs_ = std::make_unique<TaskPool>(leg_threads_);
  legs_->Submit([] {});  // start every leg thread now, like the front end
  Status started = front_.Start();
  if (!started.ok()) legs_.reset();
  return started;
}

void Coordinator::Shutdown() {
  // The front end drains admitted fan-outs, flushes their replies and
  // joins its threads; then the leg pool runs any still-queued (losing
  // hedge) legs and joins.
  front_.Shutdown();
  legs_.reset();
  for (auto& shard : shards_) {
    for (auto& replica : shard->replicas) {
      std::lock_guard<std::mutex> lock(replica->mu);
      replica->idle.clear();
    }
  }
}

void Coordinator::Execute(Batch* batch) {
  // On the I/O thread, so nothing here blocks: a query only decodes and
  // submits its legs, and a reload — whose broadcast waits out every
  // backend's load — runs on the leg pool.
  for (Request& req : *batch) {
    if (req.header.type == MessageType::kReload) {
      legs_->Submit([this, req = std::move(req)] { HandleReload(req); });
    } else {
      StartScatter(std::move(req));
    }
  }
}

protocol::HealthReply Coordinator::Health(const Request&) const {
  protocol::HealthReply reply;
  reply.served_rows = served_rows_;
  reply.dim = dim_;
  return reply;
}

void Coordinator::HandleReload(const Request& req) {
  WireReader r(req.body(), req.body_size());
  protocol::ReloadRequest request;
  Status decoded = protocol::DecodeReloadRequest(&r, &request);
  if (decoded.ok()) decoded = r.ExpectEnd();
  if (!decoded.ok()) {
    front_.CompleteError(req, decoded);
    return;
  }
  // One fleet reload at a time: concurrent broadcasts would interleave
  // their swaps across replicas.
  std::lock_guard<std::mutex> lock(reload_mu_);
  // Backends swap one by one, so no box is trustworthy until every one
  // has answered: scatters started from here on contact every shard.
  SetRouting(std::make_shared<const Routing>(shards_.size()));
  auto routing = std::make_shared<Routing>(shards_.size());

  QueryOptions options;
  options.deadline_ms = req.deadline_ms;  // 0 = the client's long default

  // Broadcast to every replica of every shard over fresh connections
  // (reloads are rare, and a dataset build would hold a pooled connection
  // for its whole duration). All replicas must succeed: the same refusal
  // taxonomy as the Start() probe, so a half-swapped fleet never serves.
  protocol::ReloadReply merged;
  merged.old_epoch = UINT64_MAX;
  merged.new_epoch = UINT64_MAX;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard* shard = shards_[s].get();
    uint64_t shard_rows = 0;
    std::optional<Box>& shard_box = (*routing)[s];
    for (size_t i = 0; i < shard->replicas.size(); ++i) {
      Replica* replica = shard->replicas[i].get();
      Status failed = Status::OK();
      auto client = QueryClient::Connect(
          replica->addr.host, replica->addr.port, config_.connect_timeout_ms);
      if (!client.ok()) {
        failed = client.status();
      } else {
        auto reply = client->Reload(request.path, options);
        if (!reply.ok()) {
          failed = reply.status();
        } else {
          merged.old_epoch = std::min(merged.old_epoch, reply->old_epoch);
          merged.new_epoch = std::min(merged.new_epoch, reply->new_epoch);
          shard_rows = reply->served_rows;
          // The shard's box covers every replica's rows; one replica
          // without a box leaves the shard unknown.
          const std::optional<Box> box = ShardBox(reply->routing_box, dim_);
          if (i == 0) {
            shard_box = box;
          } else if (shard_box && box) {
            shard_box->Extend(box->lo().data());
            shard_box->Extend(box->hi().data());
          } else {
            shard_box.reset();
          }
        }
      }
      if (!failed.ok()) {
        front_.CompleteError(
            req, AnnotateStatus(failed, "Coordinator: reload of shard " +
                                            std::to_string(s) + " replica " +
                                            std::to_string(i) + " failed"));
        return;
      }
    }
    shard->served_rows.store(shard_rows);
    merged.served_rows += shard_rows;
  }
  served_rows_.store(merged.served_rows);
  SetRouting(std::move(routing));

  front_.Complete(
      req, Status::OK(), 0, /*cacheable_reply=*/false,
      [&](WireWriter* w) { protocol::EncodeReloadReply(merged, w); });
}

Status Coordinator::DecodeSubRequest(const MessageHeader& header,
                                     const uint8_t* body, size_t body_len,
                                     uint32_t deadline_ms, SubRequest* out) {
  out->type = header.type;
  out->budget_ms = deadline_ms;
  out->allow_partial = (header.flags & protocol::kFlagAllowPartial) != 0;
  // The per-leg deadline is recomputed from the remaining budget before
  // every backend exchange (LegDeadline); this is only the first leg's
  // upper bound.
  out->options.deadline_ms =
      deadline_ms != 0 ? deadline_ms : config_.sub_deadline_ms;
  out->options.skip_corrupt = (header.flags & protocol::kFlagSkipCorrupt) != 0;
  out->options.force_full_scan =
      (header.flags & protocol::kFlagHintFullScan) != 0;
  out->options.force_index = (header.flags & protocol::kFlagHintIndex) != 0;

  WireReader r(body, body_len);
  switch (header.type) {
    case MessageType::kPointCount:
    case MessageType::kBoxQuery: {
      protocol::BoxQueryRequest query;
      MDS_RETURN_NOT_OK(protocol::DecodeBoxQueryRequest(&r, &query));
      MDS_RETURN_NOT_OK(r.ExpectEnd());
      MDS_RETURN_NOT_OK(protocol::CheckQueryDimension(query.lo.size(), dim_));
      out->lo = std::move(query.lo);
      out->hi = std::move(query.hi);
      out->limit = query.limit;
      return Status::OK();
    }
    case MessageType::kKnn: {
      protocol::KnnRequest knn;
      MDS_RETURN_NOT_OK(protocol::DecodeKnnRequest(&r, &knn));
      MDS_RETURN_NOT_OK(r.ExpectEnd());
      MDS_RETURN_NOT_OK(protocol::CheckQueryDimension(knn.point.size(), dim_));
      // The global bound check lives here: each shard only knows its own
      // rows, so a k between one shard's rows and the total is valid
      // globally while invalid locally (the scatter clamps per-shard k).
      if (knn.k > served_rows_.load()) {
        return Status::InvalidArgument("k " + std::to_string(knn.k) +
                                       " exceeds served rows " +
                                       std::to_string(served_rows_.load()));
      }
      out->point = std::move(knn.point);
      out->k = knn.k;
      return Status::OK();
    }
    case MessageType::kTableSample: {
      protocol::TableSampleRequest sample;
      MDS_RETURN_NOT_OK(protocol::DecodeTableSampleRequest(&r, &sample));
      MDS_RETURN_NOT_OK(r.ExpectEnd());
      MDS_RETURN_NOT_OK(protocol::CheckQueryDimension(sample.lo.size(), dim_));
      out->lo = std::move(sample.lo);
      out->hi = std::move(sample.hi);
      out->percent = sample.percent;
      out->n = sample.n;
      out->sample_seed = sample.seed;
      return Status::OK();
    }
    default:
      return Status::InvalidArgument("not a query type");
  }
}

void Coordinator::StartScatter(Request client) {
  // Attempt jobs (and hedges) can outlive the reply when a late attempt
  // loses the race, so the scatter state they share is refcounted.
  auto scatter = std::make_shared<Scatter>();
  scatter->req.arrival = client.arrival;
  const Status decoded =
      DecodeSubRequest(client.header, client.body(), client.body_size(),
                       client.deadline_ms, &scatter->req);
  if (!decoded.ok()) {
    front_.CompleteError(client, decoded);
    return;
  }
  scatter->client = std::move(client);
  scatter->calls.resize(shards_.size());

  // Per-shard kNN clamp: a shard cannot answer a k beyond its own rows.
  scatter->shard_k.assign(shards_.size(), scatter->req.k);
  if (scatter->req.type == MessageType::kKnn) {
    for (size_t s = 0; s < shards_.size(); ++s) {
      scatter->shard_k[s] = static_cast<uint32_t>(
          std::min<uint64_t>(scatter->req.k, shards_[s]->served_rows));
    }
  }

  // Every call is set up before the first attempt can complete one: the
  // first wave's calls open, every other call pre-completed as skipped.
  // Attempts are bounded by the sub-request deadline (plus the client's
  // exchange slack), so every call completes in bounded time.
  const std::vector<size_t> wave = FirstWave(*routing(), scatter.get());
  for (ShardCall& call : scatter->calls) {
    call.done = true;
    call.skipped = true;
  }
  for (size_t s : wave) {
    scatter->calls[s].done = false;
    scatter->calls[s].skipped = false;
    scatter->calls[s].outstanding = 1;
  }
  scatter->done_count = scatter->calls.size() - wave.size();
  StartLegs(scatter, wave);
}

std::vector<size_t> Coordinator::FirstWave(const Routing& routing,
                                           Scatter* scatter) {
  const SubRequest& req = scatter->req;
  if (req.type == MessageType::kKnn) {
    // An unknown box bounds nothing: MINDIST² 0 keeps its shard in reach
    // of every bound.
    scatter->mindist2.resize(routing.size());
    size_t nearest = 0;
    for (size_t s = 0; s < routing.size(); ++s) {
      scatter->mindist2[s] =
          routing[s] ? routing[s]->MinSquaredDistance(req.point.data()) : 0.0;
      if (scatter->mindist2[s] < scatter->mindist2[nearest]) nearest = s;
    }
    scatter->wave_one = nearest;
    return {nearest};
  }
  const Box query(req.lo, req.hi);
  std::vector<size_t> wave;
  for (size_t s = 0; s < routing.size(); ++s) {
    if (!routing[s] || routing[s]->Intersects(query)) wave.push_back(s);
  }
  // A box no shard meets still gets an answer from some mdsd (a count of
  // 0, a Status for a bad limit), so the reply is shaped like one.
  if (wave.empty()) wave.push_back(0);
  return wave;
}

std::vector<size_t> Coordinator::OpenSecondWave(Scatter* scatter) {
  const SubRequest& req = scatter->req;
  const ShardCall& first = scatter->calls[scatter->wave_one];
  scatter->wave_one = kNoShard;
  // m: the wave-one k-th d2. No bound without k rows from it (too few
  // rows, or it failed), and none from a NaN distance.
  double bound = std::numeric_limits<double>::infinity();
  if (first.status.ok() && first.reply.neighbors.size() >= req.k) {
    const double m = first.reply.neighbors[req.k - 1].squared_distance;
    if (!std::isnan(m)) bound = m * (1.0 + kWaveTwoSlack);
  }
  std::vector<size_t> wave;
  for (size_t s = 0; s < scatter->calls.size(); ++s) {
    ShardCall& call = scatter->calls[s];
    if (!call.skipped || scatter->mindist2[s] > bound) continue;
    call.done = false;
    call.skipped = false;
    call.outstanding = 1;
    --scatter->done_count;
    wave.push_back(s);
  }
  return wave;
}

void Coordinator::StartLegs(const std::shared_ptr<Scatter>& scatter,
                            const std::vector<size_t>& shards) {
  const auto now = std::chrono::steady_clock::now();
  for (size_t s : shards) {
    legs_->Submit([this, scatter, s] { RunAttempt(scatter, s, false); });
    // The hedge timer waits in the leg pool's timed queue, holding no
    // thread.
    std::chrono::microseconds delay{0};
    if (HedgeDelay(*shards_[s], &delay)) {
      legs_->SubmitAt(now + delay,
                      [this, scatter, s] { MaybeHedge(scatter, s); });
    }
  }
}

std::shared_ptr<const Coordinator::Routing> Coordinator::routing() const {
  std::lock_guard<std::mutex> lock(routing_mu_);
  return routing_;
}

void Coordinator::SetRouting(std::shared_ptr<const Routing> routing) {
  std::lock_guard<std::mutex> lock(routing_mu_);
  routing_ = std::move(routing);
}

void Coordinator::MaybeHedge(const std::shared_ptr<Scatter>& scatter,
                             size_t s) {
  {
    std::lock_guard<std::mutex> lock(scatter->mu);
    ShardCall& call = scatter->calls[s];
    if (call.done) return;
    // A hedge is an extra leg like any failover: it needs deadline budget
    // left to be useful and a retry token to be affordable.
    uint32_t leg_deadline = 0;
    if (!LegDeadline(scatter->req, &leg_deadline)) return;
    if (!SpendRetryToken(shards_[s].get())) {
      shards_[s]->retries_denied.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    ++call.outstanding;
    shards_[s]->hedges_fired.fetch_add(1, std::memory_order_relaxed);
  }
  RunAttempt(scatter, s, /*is_hedge=*/true);
}

void Coordinator::FinishScatter(Scatter* scatter) {
  const SubRequest& req = scatter->req;
  std::vector<protocol::QueryReply> query_replies;
  std::vector<std::vector<protocol::WireNeighbor>> knn_replies;
  ScatterOutcome outcome;
  Status failure = Status::OK();
  bool all_failures_exhaustion = true;
  {
    // Extract under the lock: a losing late attempt may still touch its
    // call's bookkeeping fields.
    std::lock_guard<std::mutex> lock(scatter->mu);
    outcome.total = static_cast<uint32_t>(scatter->calls.size());
    for (size_t s = 0; s < scatter->calls.size(); ++s) {
      ShardCall& call = scatter->calls[s];
      if (call.skipped) {
        // No row of the shard can be in the answer: it answered "nothing".
        shards_[s]->pruned.fetch_add(1, std::memory_order_relaxed);
        ++outcome.answered;
        if (s < 64) outcome.mask |= 1ull << s;
        continue;
      }
      if (!call.status.ok()) {
        // A failed shard fails the request unless the client opted into a
        // partial answer (below) — half a scatter is not a correct answer
        // to any query type. Prefer a retryable failure so clients treat
        // it like a single server's shed.
        if (failure.ok() || RetryableBackendFailure(call.status)) {
          failure = AnnotateStatus(call.status,
                                   "shard " + std::to_string(s) + " failed");
        }
        if (!ExhaustionFailure(call.status)) all_failures_exhaustion = false;
        continue;
      }
      ++outcome.answered;
      if (s < 64) outcome.mask |= 1ull << s;
      if (req.type == MessageType::kKnn) {
        knn_replies.push_back(std::move(call.reply.neighbors));
      } else {
        query_replies.push_back(std::move(call.reply.query));
      }
    }
  }
  if (!failure.ok()) {
    // Degraded mode: every missing shard failed by exhaustion (budget
    // spent, breaker open, deadline out — never a semantic error, which
    // all replicas would repeat) and at least one shard answered. Merge
    // the survivors and flag the reply; the counts stay honest over
    // shards_mask.
    if (!req.allow_partial || !all_failures_exhaustion ||
        outcome.answered == 0) {
      front_.CompleteError(scatter->client, failure);
      return;
    }
    outcome.partial = true;
    partial_replies_.fetch_add(1, std::memory_order_relaxed);
  }

  // A partial merge is a degraded answer: both flags, so old clients that
  // only know kFlagDegraded still see "incomplete", and new clients can
  // tell "shards missing" from "pages skipped".
  const uint32_t partial_flags =
      outcome.partial ? (protocol::kFlagPartial | protocol::kFlagDegraded) : 0;
  if (req.type == MessageType::kKnn) {
    protocol::KnnReply reply;
    reply.neighbors = MergeKnnNeighbors(knn_replies, req.k);
    reply.shards_answered = outcome.answered;
    reply.shards_total = outcome.total;
    reply.shards_mask = outcome.mask;
    front_.Complete(
        scatter->client, Status::OK(), partial_flags,
        /*cacheable_reply=*/false,
        [&](WireWriter* w) { protocol::EncodeKnnReply(reply, w); });
    return;
  }
  const uint64_t limit =
      req.type == MessageType::kTableSample ? req.n : req.limit;
  protocol::QueryReply merged =
      MergeQueryReplies(std::move(query_replies), limit);
  if (req.type == MessageType::kTableSample) {
    // A single server's sample reply has row_count == returned rows (the
    // TOP(n) cuts sampling short); keep that invariant for the merge.
    merged.row_count = merged.objids.size();
  }
  merged.shards_answered = outcome.answered;
  merged.shards_total = outcome.total;
  merged.shards_mask = outcome.mask;
  merged.degraded = merged.degraded || outcome.partial;
  const uint32_t flags =
      (merged.degraded ? protocol::kFlagDegraded : 0) | partial_flags;
  front_.Complete(
      scatter->client, Status::OK(), flags, /*cacheable_reply=*/false,
      [&](WireWriter* w) { protocol::EncodeQueryReply(merged, w); });
}

void Coordinator::RunAttempt(const std::shared_ptr<Scatter>& scatter,
                             size_t shard_index, bool is_hedge) {
  Shard* shard = shards_[shard_index].get();
  const SubRequest* req = &scatter->req;
  const size_t call_index = shard_index;
  // A hedge starts at the next replica, off the primary's.
  const size_t replica_offset = is_hedge ? 1 : 0;
  if (!is_hedge) {
    shard->requests.fetch_add(1, std::memory_order_relaxed);
    AccrueRetryBudget(shard);
  }

  // Walk the replicas in preference order from replica_offset, admitting
  // each through its circuit breaker. Pass 0 honors the breakers; if it
  // admits nothing (every breaker open, probes taken), pass 1 tries them
  // all anyway — a likely-failing attempt beats a certain failure, and
  // one success closes the breaker.
  const size_t n = shard->replicas.size();
  Status last = Status::Unavailable("no replica attempted");
  SubReply reply;
  bool success = false;
  bool attempted = false;
  bool admitted_any = false;
  bool stop = false;
  for (int pass = 0; pass < 2 && !stop; ++pass) {
    if (pass == 1 && admitted_any) break;
    for (size_t i = 0; i < n && !stop; ++i) {
      Replica* replica = shard->replicas[(replica_offset + i) % n].get();
      bool is_probe = false;
      if (pass == 0) {
        const Admit admit = AdmitReplica(replica);
        if (admit == Admit::kSkip) {
          shard->breaker_short_circuits.fetch_add(1,
                                                  std::memory_order_relaxed);
          continue;
        }
        is_probe = admit == Admit::kProbe;
        admitted_any = true;
      }
      {
        // The other attempt may have completed the call while we were
        // failing over; stop burning backends on an answered question.
        std::lock_guard<std::mutex> lock(scatter->mu);
        if (scatter->calls[call_index].done) {
          if (is_probe) EndProbe(replica);
          stop = true;
          break;
        }
      }
      // The leg gets min(remaining budget, sub_deadline_ms): a request
      // that arrived with 100 ms can never spend 500 ms in retries here.
      QueryOptions leg_options = req->options;
      leg_options.exchange_slack_ms = config_.leg_slack_ms;
      if (!LegDeadline(*req, &leg_options.deadline_ms)) {
        last = Status::DeadlineExceeded(
            "deadline budget exhausted before another backend leg");
        if (is_probe) EndProbe(replica);
        stop = true;
        break;
      }
      // A failover leg (any attempt after the first) costs one retry
      // token; a hedge leg paid its token when the hedge fired.
      if (attempted) {
        if (!SpendRetryToken(shard)) {
          shard->retries_denied.fetch_add(1, std::memory_order_relaxed);
          last = Status::Unavailable("shard retry budget exhausted");
          if (is_probe) EndProbe(replica);
          stop = true;
          break;
        }
        shard->failovers.fetch_add(1, std::memory_order_relaxed);
      }
      attempted = true;

      bool aborted = false;
      last = AttemptReplica(shard, replica, *req, leg_options,
                            scatter->shard_k[shard_index], &reply,
                            scatter.get(), call_index, &aborted);
      if (is_probe) EndProbe(replica);
      if (aborted) {
        // The other attempt won mid-exchange: the abort is what failed
        // this leg, so its outcome says nothing about the replica.
        stop = true;
        break;
      }
      if (last.ok()) {
        MarkReplicaSuccess(replica);
        success = true;
        stop = true;
        break;
      }
      shard->backend_errors.fetch_add(1, std::memory_order_relaxed);
      if (last.code() == StatusCode::kDeadlineExceeded) {
        leg_timeouts_.fetch_add(1, std::memory_order_relaxed);
      }
      if (!ExhaustionFailure(last)) {
        stop = true;  // semantic error: every replica would repeat it
        break;
      }
      MarkReplicaFailure(replica);
    }
  }

  std::vector<size_t> second_wave;
  {
    std::lock_guard<std::mutex> lock(scatter->mu);
    ShardCall& call = scatter->calls[call_index];
    --call.outstanding;
    if (call.done) return;  // the other attempt won; nothing to record
    if (success) {
      call.status = Status::OK();
      call.reply = std::move(reply);
      if (is_hedge) {
        shard->hedges_won.fetch_add(1, std::memory_order_relaxed);
      }
      // Reap the losing attempt's in-flight exchange: shut its socket
      // down so its read fails now instead of running out the leg
      // deadline on a connection that must not be pooled anyway. The
      // loser deregisters under this same mutex before destroying its
      // client, so every pointer here is live.
      for (QueryClient* inflight : call.inflight) inflight->Abort();
    } else {
      call.status = last;
      if (call.outstanding > 0) return;  // a hedge is still in flight
      // Don't wait out a pending hedge timer: this attempt already walked
      // the replicas, so a hedge could only repeat what just failed.
    }
    call.done = true;
    if (call_index == scatter->wave_one) {
      second_wave = OpenSecondWave(scatter.get());
    }
    if (++scatter->done_count < scatter->calls.size() && second_wave.empty()) {
      return;
    }
  }
  if (!second_wave.empty()) {
    knn_second_waves_.fetch_add(1, std::memory_order_relaxed);
    StartLegs(scatter, second_wave);
    return;
  }
  // This attempt completed the last call: merge and reply.
  FinishScatter(scatter.get());
}

Status Coordinator::AttemptReplica(Shard* shard, Replica* replica,
                                   const SubRequest& req,
                                   const QueryOptions& leg_options,
                                   uint32_t k_for_shard, SubReply* out,
                                   Scatter* scatter, size_t call_index,
                                   bool* aborted) {
  *aborted = false;
  auto client = AcquireClient(replica);
  if (!client.ok()) return client.status();
  QueryClient conn = std::move(*client);

  {
    // Register for the reap protocol: if the other attempt completes the
    // call while this exchange runs, it Abort()s this connection.
    std::lock_guard<std::mutex> lock(scatter->mu);
    ShardCall& call = scatter->calls[call_index];
    if (call.done) {
      *aborted = true;
    } else {
      call.inflight.push_back(&conn);
    }
  }
  if (*aborted) {
    // Never registered, never used: the connection is still poolable.
    ReleaseClient(replica, std::move(conn));
    return Status::Unavailable("attempt aborted: call already answered");
  }

  const auto start = std::chrono::steady_clock::now();
  Status st;
  switch (req.type) {
    case MessageType::kPointCount: {
      auto result = conn.PointCountDetailed(Box(req.lo, req.hi), leg_options);
      if (result.ok()) out->query = FromClientResult(std::move(*result));
      st = result.status();
      break;
    }
    case MessageType::kBoxQuery: {
      auto result = conn.BoxQuery(Box(req.lo, req.hi), req.limit, leg_options);
      if (result.ok()) out->query = FromClientResult(std::move(*result));
      st = result.status();
      break;
    }
    case MessageType::kKnn: {
      auto result = conn.Knn(req.point, k_for_shard, leg_options);
      if (result.ok()) out->neighbors = std::move(result->neighbors);
      st = result.status();
      break;
    }
    case MessageType::kTableSample: {
      auto result = conn.TableSample(Box(req.lo, req.hi), req.percent, req.n,
                                     req.sample_seed, leg_options);
      if (result.ok()) out->query = FromClientResult(std::move(*result));
      st = result.status();
      break;
    }
    default:
      st = Status::Internal("scatter of a non-query type");
      break;
  }

  {
    // Deregister before the winner (or this frame) can invalidate `conn`.
    std::lock_guard<std::mutex> lock(scatter->mu);
    ShardCall& call = scatter->calls[call_index];
    call.inflight.erase(
        std::remove(call.inflight.begin(), call.inflight.end(), &conn),
        call.inflight.end());
    *aborted = call.done;
  }
  if (*aborted) {
    // The winner may have shut this socket down mid-exchange — or right
    // after the exchange finished, which still poisons the connection.
    // Either way it is closed here, never pooled.
    return st.ok() ? Status::Unavailable("attempt aborted by winner")
                   : std::move(st);
  }

  if (st.ok()) {
    const auto elapsed = std::chrono::steady_clock::now() - start;
    shard->latency_us.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed)
            .count()));
  }
  // A failed exchange poisoned the client (connected() == false) and
  // ReleaseClient only pools connections that are still good; a semantic
  // error from the backend (e.g. InvalidArgument) leaves the connection
  // healthy. The poisoned fd closes when `conn` goes out of scope — after
  // the deregistration above, so no Abort() can race it.
  ReleaseClient(replica, std::move(conn));
  return st;
}

bool Coordinator::LegDeadline(const SubRequest& req,
                              uint32_t* leg_deadline_ms) const {
  if (req.budget_ms == 0) {
    // No client deadline: each leg is bounded by sub_deadline_ms alone
    // (retries are bounded by the retry budget and breakers instead).
    *leg_deadline_ms = config_.sub_deadline_ms;
    return true;
  }
  const auto elapsed = std::chrono::steady_clock::now() - req.arrival;
  const int64_t elapsed_ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count();
  const int64_t remaining = static_cast<int64_t>(req.budget_ms) - elapsed_ms;
  if (remaining < 1) return false;
  int64_t leg = remaining;
  if (config_.sub_deadline_ms != 0) {
    leg = std::min<int64_t>(leg, config_.sub_deadline_ms);
  }
  *leg_deadline_ms = static_cast<uint32_t>(leg);
  return true;
}

Coordinator::Admit Coordinator::AdmitReplica(Replica* replica) {
  const uint32_t failures =
      replica->consecutive_failures.load(std::memory_order_acquire);
  if (failures < config_.breaker_failure_threshold) return Admit::kClosed;
  const int64_t retry_at = replica->retry_at_ms.load(std::memory_order_acquire);
  if (SteadyNowMs() < retry_at) return Admit::kSkip;  // open
  // Half-open: admit exactly one probe until its outcome lands. The CAS
  // loser skips — a second concurrent attempt must not pile onto a
  // replica that is still proving itself.
  bool expected = false;
  if (replica->probing.compare_exchange_strong(expected, true,
                                               std::memory_order_acq_rel)) {
    return Admit::kProbe;
  }
  return Admit::kSkip;
}

void Coordinator::AccrueRetryBudget(Shard* shard) {
  const int64_t cap = static_cast<int64_t>(config_.retry_budget_cap) * 1000;
  const int64_t add =
      static_cast<int64_t>(config_.retry_budget_ratio * 1000.0);
  if (add <= 0) return;
  int64_t cur = shard->retry_budget_milli.load(std::memory_order_relaxed);
  while (cur < cap && !shard->retry_budget_milli.compare_exchange_weak(
                          cur, std::min<int64_t>(cap, cur + add),
                          std::memory_order_relaxed)) {
  }
}

bool Coordinator::SpendRetryToken(Shard* shard) {
  int64_t cur = shard->retry_budget_milli.load(std::memory_order_relaxed);
  while (cur >= 1000) {
    if (shard->retry_budget_milli.compare_exchange_weak(
            cur, cur - 1000, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

Result<QueryClient> Coordinator::AcquireClient(Replica* replica) {
  {
    std::lock_guard<std::mutex> lock(replica->mu);
    if (!replica->idle.empty()) {
      QueryClient client = std::move(replica->idle.back());
      replica->idle.pop_back();
      return client;
    }
  }
  return QueryClient::Connect(replica->addr.host, replica->addr.port,
                              config_.connect_timeout_ms);
}

void Coordinator::ReleaseClient(Replica* replica, QueryClient client) {
  if (!client.connected()) return;
  std::lock_guard<std::mutex> lock(replica->mu);
  if (replica->idle.size() < config_.pool_connections_per_replica) {
    replica->idle.push_back(std::move(client));
  }
}

void Coordinator::MarkReplicaFailure(Replica* replica) {
  const uint32_t failures =
      replica->consecutive_failures.fetch_add(1, std::memory_order_acq_rel) + 1;
  uint64_t base = config_.replica_backoff_ms;
  for (uint32_t i = 1; i < failures && base < config_.replica_backoff_max_ms;
       ++i) {
    base *= 2;
  }
  base = std::min<uint64_t>(base, config_.replica_backoff_max_ms);
  // Equal jitter (base/2 + uniform(0, base/2]): keeps at least half the
  // exponential spacing while desynchronizing the probe times of clients
  // that all watched the same shard restart — a deterministic backoff
  // turns recovery into a synchronized retry storm.
  uint64_t backoff = base;
  if (base >= 2) {
    std::lock_guard<std::mutex> lock(rng_mu_);
    backoff = base / 2 + rng_.NextBounded(base / 2 + 1);
  }
  replica->retry_at_ms.store(SteadyNowMs() + static_cast<int64_t>(backoff),
                             std::memory_order_release);
}

void Coordinator::MarkReplicaSuccess(Replica* replica) {
  replica->consecutive_failures.store(0, std::memory_order_release);
  replica->retry_at_ms.store(0, std::memory_order_release);
}

bool Coordinator::HedgeDelay(const Shard& shard,
                             std::chrono::microseconds* delay) const {
  if (shard.replicas.size() < 2) return false;
  if (config_.hedge_delay_ms != 0) {
    *delay = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::milliseconds(config_.hedge_delay_ms));
    return true;
  }
  const Histogram::Snapshot snap = shard.latency_us.TakeSnapshot();
  if (snap.count < config_.hedge_min_samples) return false;
  // Never hedge instantly even when the shard is very fast: below ~1ms
  // the hedge would routinely lose the race it was meant to win.
  *delay = std::chrono::microseconds(
      std::max<uint64_t>(1000, snap.ValueAtPercentile(99)));
  return true;
}

void Coordinator::AddStats(protocol::ServerStatsSnapshot* out) const {
  out->deadline_timeouts += leg_timeouts_.load(std::memory_order_relaxed);
  out->partial_replies = partial_replies_.load(std::memory_order_relaxed);
  out->knn_second_waves = knn_second_waves_.load(std::memory_order_relaxed);
  out->shards.reserve(shards_.size());
  for (const auto& shard : shards_) {
    protocol::ShardStatsEntry entry;
    entry.replicas = static_cast<uint32_t>(shard->replicas.size());
    for (const auto& replica : shard->replicas) {
      // Healthy = breaker not open: closed (under the failure threshold)
      // or half-open (backoff expired, a probe may run).
      const uint32_t failures =
          replica->consecutive_failures.load(std::memory_order_acquire);
      if (failures < config_.breaker_failure_threshold) {
        ++entry.healthy_replicas;
      } else if (SteadyNowMs() <
                 replica->retry_at_ms.load(std::memory_order_acquire)) {
        ++entry.open_breakers;
      } else {
        ++entry.half_open_breakers;
        ++entry.healthy_replicas;
      }
    }
    entry.requests = shard->requests.load(std::memory_order_relaxed);
    entry.backend_errors = shard->backend_errors.load(std::memory_order_relaxed);
    entry.failovers = shard->failovers.load(std::memory_order_relaxed);
    entry.hedges_fired = shard->hedges_fired.load(std::memory_order_relaxed);
    entry.hedges_won = shard->hedges_won.load(std::memory_order_relaxed);
    entry.retries_denied = shard->retries_denied.load(std::memory_order_relaxed);
    entry.breaker_short_circuits =
        shard->breaker_short_circuits.load(std::memory_order_relaxed);
    entry.pruned = shard->pruned.load(std::memory_order_relaxed);
    const Histogram::Snapshot snap = shard->latency_us.TakeSnapshot();
    entry.p50_us = snap.ValueAtPercentile(50);
    entry.p99_us = snap.ValueAtPercentile(99);
    out->shards.push_back(entry);
  }
}

}  // namespace mds
