// The correctness oracle: digests of ReferenceEvaluator answers in wire
// shape, and an
// in-memory catalog for evaluating a live dataset at any published epoch.

#include "masksearch/baselines/reference.h"
#include "perfbench.h"

namespace perfbench {

namespace {

std::vector<MaskMeta> VisibleMetas(const std::vector<MaskRecord>& records,
                                   const std::vector<int32_t>& order) {
  std::vector<MaskMeta> metas;
  metas.reserve(order.size());
  for (size_t i = 0; i < order.size(); ++i) {
    MaskMeta m = records[static_cast<size_t>(order[i])].meta;
    m.mask_id = static_cast<MaskId>(i);
    metas.push_back(m);
  }
  return metas;
}

std::vector<uint64_t> VisibleSizes(const std::vector<MaskRecord>& records,
                                   const std::vector<int32_t>& order) {
  std::vector<uint64_t> sizes;
  sizes.reserve(order.size());
  for (int32_t i : order) {
    sizes.push_back(records[static_cast<size_t>(i)].mask.ByteSize());
  }
  return sizes;
}

}  // namespace

MemoryStore::MemoryStore(const std::vector<MaskRecord>* records,
                         std::vector<int32_t> order)
    : MaskStore("", MaskStore::Options(), StorageKind::kRawFloat32,
                VisibleMetas(*records, order), VisibleSizes(*records, order)),
      records_(records),
      order_(std::move(order)) {}

Result<Mask> MemoryStore::LoadMask(MaskId id) const {
  MS_RETURN_NOT_OK(CheckId(id));
  return (*records_)[static_cast<size_t>(order_[static_cast<size_t>(id)])]
      .mask;
}

Result<std::vector<Mask>> MemoryStore::LoadMaskBatch(
    const std::vector<MaskId>& ids) const {
  std::vector<Mask> out;
  out.reserve(ids.size());
  for (MaskId id : ids) {
    MS_ASSIGN_OR_RETURN(Mask m, LoadMask(id));
    out.push_back(std::move(m));
  }
  return out;
}

Result<Mask> MemoryStore::LoadMaskRows(MaskId id, int32_t y0,
                                       int32_t y1) const {
  MS_ASSIGN_OR_RETURN(Mask full, LoadMask(id));
  std::vector<float> rows(full.data().begin() +
                              static_cast<ptrdiff_t>(y0) * full.width(),
                          full.data().begin() +
                              static_cast<ptrdiff_t>(y1) * full.width());
  return Mask::FromData(full.width(), y1 - y0, std::move(rows));
}

Status MemoryStore::ReadBlob(MaskId, std::string*) const {
  return Status::NotImplemented("in-memory oracle store has no blobs");
}

Result<uint64_t> ReferenceDigest(const MaskStore& store,
                                 const QueryRequest& request) {
  ReferenceEvaluator ref(&store, [&store](MaskId id, int64_t* bytes) {
    *bytes = static_cast<int64_t>(store.BlobSize(id));
    return store.LoadMask(id);
  });
  QueryResponse resp;
  resp.kind = request.kind;
  switch (request.kind) {
    case QueryRequest::Kind::kFilter: {
      MS_ASSIGN_OR_RETURN(resp.filter, ref.Filter(request.filter));
      break;
    }
    case QueryRequest::Kind::kTopK: {
      MS_ASSIGN_OR_RETURN(resp.topk, ref.TopK(request.topk));
      break;
    }
    case QueryRequest::Kind::kAggregation: {
      MS_ASSIGN_OR_RETURN(resp.agg, ref.Aggregate(request.agg));
      break;
    }
    case QueryRequest::Kind::kMaskAgg: {
      MS_ASSIGN_OR_RETURN(resp.agg, ref.MaskAggregate(request.mask_agg));
      break;
    }
  }
  // QueryResultResponse is the one flattening the server applies.
  return AnswerDigest(net::QueryResultResponse(0, resp).result);
}

uint64_t AnswerDigest(const net::WireQueryResult& r) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) h = (h ^ b[i]) * 1099511628211ull;
  };
  mix(&r.kind, sizeof(r.kind));
  const uint64_t ids = r.mask_ids.size();
  mix(&ids, sizeof(ids));
  for (int64_t id : r.mask_ids) mix(&id, sizeof(id));
  for (const auto& [id, v] : r.scored) {
    mix(&id, sizeof(id));
    mix(&v, sizeof(v));
  }
  return h;
}

}  // namespace perfbench
