#include "storage/page_stream.h"

namespace mds {

Status PageStreamWriter::EnsurePage() {
  if (current_ != kInvalidPageId) return Status::OK();
  MDS_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool_->Allocate());
  Page& page = guard.MutablePage();
  page.WriteAt<PageId>(0, kInvalidPageId);
  page.WriteAt<uint32_t>(8, 0);
  if (first_ == kInvalidPageId) {
    first_ = guard.id();
  } else {
    // Link the previous page to this one.
    MDS_ASSIGN_OR_RETURN(BufferPool::PageGuard prev, pool_->Fetch(current_prev_));
    prev.MutablePage().WriteAt<PageId>(0, guard.id());
  }
  current_ = guard.id();
  buffer_.clear();
  return Status::OK();
}

Status PageStreamWriter::Write(const void* data, size_t len) {
  if (finished_) {
    return Status::FailedPrecondition("PageStreamWriter: already finished");
  }
  const uint8_t* src = static_cast<const uint8_t*>(data);
  while (len > 0) {
    MDS_RETURN_NOT_OK(EnsurePage());
    size_t room = kCapacity - buffer_.size();
    size_t take = std::min(room, len);
    buffer_.insert(buffer_.end(), src, src + take);
    src += take;
    len -= take;
    if (buffer_.size() == kCapacity) {
      // Flush the full page and chain a new one on the next write.
      MDS_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool_->Fetch(current_));
      Page& page = guard.MutablePage();
      std::memcpy(page.bytes() + kHeader, buffer_.data(), buffer_.size());
      page.WriteAt<uint32_t>(8, static_cast<uint32_t>(buffer_.size()));
      current_prev_ = current_;
      current_ = kInvalidPageId;
      buffer_.clear();
    }
  }
  return Status::OK();
}

Result<PageId> PageStreamWriter::Finish() {
  if (finished_) {
    return Status::FailedPrecondition("PageStreamWriter: already finished");
  }
  if (current_ == kInvalidPageId && first_ == kInvalidPageId) {
    // Empty stream still gets one page so the chain has a head.
    MDS_RETURN_NOT_OK(EnsurePage());
  }
  if (current_ != kInvalidPageId) {
    MDS_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool_->Fetch(current_));
    Page& page = guard.MutablePage();
    if (!buffer_.empty()) {
      std::memcpy(page.bytes() + kHeader, buffer_.data(), buffer_.size());
    }
    page.WriteAt<uint32_t>(8, static_cast<uint32_t>(buffer_.size()));
  }
  finished_ = true;
  return first_;
}

Status PageStreamReader::LoadNextPage() {
  if (next_ == kInvalidPageId) {
    return Status::OutOfRange("PageStreamReader: end of stream");
  }
  MDS_ASSIGN_OR_RETURN(BufferPool::PageGuard guard, pool_->Fetch(next_));
  const Page& page = guard.page();
  next_ = page.ReadAt<PageId>(0);
  uint32_t used = page.ReadAt<uint32_t>(8);
  if (used > kPageUsableSize - kHeader) {
    return Status::Corruption("PageStreamReader: bad page header");
  }
  buffer_.assign(page.bytes() + kHeader, page.bytes() + kHeader + used);
  pos_ = 0;
  return Status::OK();
}

Status PageStreamReader::Read(void* out, size_t len) {
  uint8_t* dst = static_cast<uint8_t*>(out);
  while (len > 0) {
    if (pos_ == buffer_.size()) {
      MDS_RETURN_NOT_OK(LoadNextPage());
      if (buffer_.empty() && len > 0) {
        return Status::OutOfRange("PageStreamReader: truncated stream");
      }
    }
    size_t take = std::min(buffer_.size() - pos_, len);
    std::memcpy(dst, buffer_.data() + pos_, take);
    pos_ += take;
    dst += take;
    len -= take;
  }
  return Status::OK();
}

}  // namespace mds
