#include "server/server.h"

#include <utility>

#include "common/rng.h"
#include "core/knn.h"
#include "core/query_planner.h"

namespace mds {

namespace {

using protocol::MessageType;

/// Resource cap on one kNN request (the result is k * 16 bytes).
constexpr uint32_t kMaxKnnK = 1u << 16;

/// The reply to one executed box-like request. `limit` != 0 is the
/// reply-size cap: the first `limit` matches in clustered row order (the
/// scan itself is not truncated; pages_fetched is unaffected).
protocol::QueryReply MakeQueryReply(MessageType type, uint64_t limit,
                                    std::string chosen_path,
                                    StorageQueryResult result,
                                    const QueryStats& stats) {
  protocol::QueryReply reply;
  reply.chosen_path = std::move(chosen_path);
  reply.row_count = result.row_count;
  if (type == MessageType::kBoxQuery || type == MessageType::kTableSample) {
    reply.objids = std::move(result.objids);
    if (limit != 0 && reply.objids.size() > limit) reply.objids.resize(limit);
  }
  reply.rows_scanned = stats.rows_scanned;
  reply.pages_fetched = stats.pages_fetched;
  reply.pages_read = stats.pages_read;
  reply.pages_skipped = stats.pages_skipped;
  reply.degraded = result.degraded;
  return reply;
}

/// The dataset's routing box as the Health/Reload reply tail carries it.
protocol::RoutingBox WireRoutingBox(const ServedDataset& dataset) {
  protocol::RoutingBox box;
  if (dataset.routing_box()) {
    box.lo = dataset.routing_box()->lo();
    box.hi = dataset.routing_box()->hi();
  }
  return box;
}

}  // namespace

QueryServer::QueryServer(std::shared_ptr<const ServedDataset> dataset,
                         const ServerConfig& config)
    : dataset_(std::move(dataset)), front_(this, config) {}

QueryServer::~QueryServer() { Shutdown(); }

Status QueryServer::Start() {
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    pool_at_start_ = dataset_->pool()->Snapshot();
  }
  return AnnotateStatus(front_.Start(), "QueryServer::Start");
}

// --- dataset lifecycle -------------------------------------------------------

void QueryServer::Bind(Request* req) const {
  // Snapshot the serving generation and its cache epoch as one consistent
  // pair: Reload swaps the pointer and bumps the (shared) epoch under the
  // same mutex, so a request never pairs old data with the new epoch.
  std::lock_guard<std::mutex> lock(dataset_mu_);
  req->dataset = dataset_;
  req->cache_epoch = dataset_->epoch();
}

void QueryServer::SetReloadHandler(ReloadHandler handler) {
  std::lock_guard<std::mutex> lock(dataset_mu_);
  reload_handler_ = std::move(handler);
}

Result<protocol::ReloadReply> QueryServer::Reload(const std::string& path) {
  // One reload at a time: concurrent kReload requests (or a SIGHUP racing
  // an admin request) serialize here instead of interleaving their swaps.
  std::lock_guard<std::mutex> reload_lock(reload_mu_);

  ReloadHandler handler;
  std::shared_ptr<const ServedDataset> current;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    handler = reload_handler_;
    current = dataset_;
  }
  if (!handler) {
    return Status::FailedPrecondition(
        "QueryServer::Reload: no reload handler installed");
  }

  // The load runs on the calling thread, off dataset_mu_ — queries keep
  // executing against the current snapshot for the whole build.
  auto next = handler(path);
  if (!next.ok()) {
    return AnnotateStatus(next.status(),
                          "QueryServer::Reload('" + path + "')");
  }
  if (*next == nullptr) {
    return Status::Internal(
        "QueryServer::Reload: handler returned no dataset");
  }

  // Same refusal taxonomy as the coordinator's startup probe: the new
  // generation must answer the same query space as the one it replaces.
  if ((*next)->dim() != current->dim()) {
    return Status::FailedPrecondition(
        "reload refused: new dataset serves dimension " +
        std::to_string((*next)->dim()) + ", expected " +
        std::to_string(current->dim()));
  }
  if ((*next)->shard_index() != current->shard_index() ||
      (*next)->shard_count() != current->shard_count()) {
    return Status::FailedPrecondition(
        "reload refused: new dataset is shard " +
        std::to_string((*next)->shard_index()) + "/" +
        std::to_string((*next)->shard_count()) + ", expected shard " +
        std::to_string(current->shard_index()) + "/" +
        std::to_string(current->shard_count()));
  }

  protocol::ReloadReply reply;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    // Swap first, then bump: a request racing this window can at worst
    // insert an old-epoch cache entry, which the bump invalidates
    // wholesale. (Bump-then-swap could cache an old-data reply under the
    // NEW epoch — a persistent lie.) In-flight requests that snapshotted
    // the old generation finish against it; its pages stay alive until
    // the last shared_ptr drops.
    (*next)->AdoptEpochFrom(*dataset_);
    reply.old_epoch = dataset_->epoch();
    dataset_ = std::move(*next);
    dataset_->BumpEpoch();
    reply.new_epoch = dataset_->epoch();
    reply.served_rows = dataset_->num_rows();
    reply.routing_box = WireRoutingBox(*dataset_);
    pool_at_start_ = dataset_->pool()->Snapshot();
  }
  return reply;
}

// --- worker path -------------------------------------------------------------

void QueryServer::Execute(Batch* batch) {
  for (Request& req : *batch) {
    if (req.header.type == MessageType::kReload) {
      HandleReload(&req);
    } else if (req.header.type == MessageType::kKnn) {
      protocol::KnnReply reply;
      const Status query_status = ExecuteKnn(req, &reply);
      front_.Complete(
          req, query_status, 0,
          ReplyCacheable(query_status, /*degraded=*/false,
                         /*pages_skipped=*/0),
          [&](WireWriter* w) { protocol::EncodeKnnReply(reply, w); });
    } else {
      ExecuteAndReplyBoxLike(&req);
    }
  }
}

void QueryServer::ExecuteAndReplyBoxLike(Request* req) {
  protocol::QueryReply reply;
  const Status query_status = ExecuteBoxLike(*req, &reply);
  const uint32_t flags = reply.degraded ? protocol::kFlagDegraded : 0;
  front_.Complete(
      *req, query_status, flags,
      ReplyCacheable(query_status, reply.degraded, reply.pages_skipped),
      [&](WireWriter* w) { protocol::EncodeQueryReply(reply, w); });
}

void QueryServer::HandleReload(Request* req) {
  WireReader r(req->body(), req->body_size());
  protocol::ReloadRequest reload;
  Status decoded = DecodeReloadRequest(&r, &reload);
  if (decoded.ok()) decoded = r.ExpectEnd();
  if (!decoded.ok()) {
    front_.CompleteError(*req, decoded);
    return;
  }
  auto result = Reload(reload.path);
  if (!result.ok()) {
    front_.CompleteError(*req, result.status());
    return;
  }
  front_.Complete(
      *req, Status::OK(), 0, /*cacheable_reply=*/false,
      [&](WireWriter* w) { protocol::EncodeReloadReply(*result, w); });
}

Status QueryServer::ExecuteBoxLike(const Request& req,
                                   protocol::QueryReply* out) {
  WireReader r(req.body(), req.body_size());
  const PointTableBinding& binding = req.dataset->binding();

  // Skip-corrupt from the flags; a point count, whose reply carries no
  // objids, runs count-only.
  RangeScanner::ScanOptions scan;
  scan.skip_corrupt_pages =
      (req.header.flags & protocol::kFlagSkipCorrupt) != 0;
  scan.count_only = req.header.type == MessageType::kPointCount;

  QueryStats stats;
  Result<StorageQueryResult> result =
      Status::Internal("query not executed");
  uint64_t limit = 0;
  std::string chosen_path;

  if (req.header.type == MessageType::kTableSample) {
    protocol::TableSampleRequest sample;
    MDS_RETURN_NOT_OK(DecodeTableSampleRequest(&r, &sample));
    MDS_RETURN_NOT_OK(r.ExpectEnd());
    MDS_RETURN_NOT_OK(
        protocol::CheckQueryDimension(sample.lo.size(), req.dataset->dim()));
    Box box(sample.lo, sample.hi);
    Rng rng(sample.seed);
    TableSamplePath path(binding, box, sample.percent, sample.n, &rng);
    result = ExecuteAccessPath(&path, scan, &stats);
    chosen_path = path.name();
  } else {
    protocol::BoxQueryRequest query;
    MDS_RETURN_NOT_OK(DecodeBoxQueryRequest(&r, &query));
    MDS_RETURN_NOT_OK(r.ExpectEnd());
    MDS_RETURN_NOT_OK(
        protocol::CheckQueryDimension(query.lo.size(), req.dataset->dim()));
    limit = query.limit;
    Box box(query.lo, query.hi);
    const Polyhedron poly = Polyhedron::FromBox(box);

    // Both candidates filter with the one polyhedron: whichever the
    // planner picks, a box means the same rows.
    QueryPlanner planner;
    planner.AddPath(std::make_unique<FullScanPath>(binding, poly))
        .AddPath(std::make_unique<KdTreePath>(binding, req.dataset->tree(),
                                              poly));

    QueryPlanner::ExecuteOptions options;
    options.scan = scan;
    // Protocol planner hints map onto the planner's path restriction.
    if (req.header.flags & protocol::kFlagHintFullScan) {
      options.required_path = "full-scan";
    } else if (req.header.flags & protocol::kFlagHintIndex) {
      options.required_path = "kd-tree";
    }
    result = planner.Execute(options, &stats, &chosen_path);
  }

  if (!result.ok()) return result.status();
  *out = MakeQueryReply(req.header.type, limit, std::move(chosen_path),
                        std::move(*result), stats);
  return Status::OK();
}

Status QueryServer::ExecuteKnn(const Request& req,
                               protocol::KnnReply* out) {
  WireReader r(req.body(), req.body_size());
  protocol::KnnRequest knn;
  MDS_RETURN_NOT_OK(DecodeKnnRequest(&r, &knn));
  MDS_RETURN_NOT_OK(r.ExpectEnd());
  MDS_RETURN_NOT_OK(
      protocol::CheckQueryDimension(knn.point.size(), req.dataset->dim()));
  if (knn.k > kMaxKnnK) {
    return Status::InvalidArgument("k exceeds cap " +
                                   std::to_string(kMaxKnnK));
  }
  // k beyond the stored row count used to clamp silently; an answer with
  // fewer than k neighbors is indistinguishable from data loss to the
  // caller, so it is now a boundary error.
  if (knn.k > req.dataset->num_rows()) {
    return Status::InvalidArgument(
        "k " + std::to_string(knn.k) + " exceeds served rows " +
        std::to_string(req.dataset->num_rows()));
  }
  KdKnnSearcher searcher(&req.dataset->tree());
  std::vector<Neighbor> neighbors =
      searcher.BoundaryGrow(knn.point.data(), knn.k);
  out->neighbors.reserve(neighbors.size());
  for (const Neighbor& n : neighbors) {
    out->neighbors.push_back(protocol::WireNeighbor{
        static_cast<int64_t>(n.id), n.squared_distance});
  }
  return Status::OK();
}

protocol::HealthReply QueryServer::Health(const Request& req) const {
  protocol::HealthReply reply;
  reply.served_rows = req.dataset->num_rows();
  reply.dim = static_cast<uint32_t>(req.dataset->dim());
  reply.routing_box = WireRoutingBox(*req.dataset);
  return reply;
}

void QueryServer::AddStats(protocol::ServerStatsSnapshot* s) const {
  // One consistent (generation, baseline) pair: Reload re-baselines
  // pool_at_start_ when it swaps the dataset, under the same mutex.
  std::shared_ptr<const ServedDataset> dataset;
  CounterSnapshot pool_at_start;
  {
    std::lock_guard<std::mutex> lock(dataset_mu_);
    dataset = dataset_;
    pool_at_start = pool_at_start_;
  }
  const CounterSnapshot::Delta delta =
      dataset->pool()->Delta(pool_at_start);
  s->pool_logical_reads = delta.logical_reads;
  s->pool_physical_reads = delta.physical_reads;
  s->dataset_epoch = dataset->epoch();
}

}  // namespace mds
