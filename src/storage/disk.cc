#include "storage/disk.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>

#include "common/crc32c.h"

namespace sqlarray::storage {

namespace {

uint32_t PageChecksum(const Page& page) {
  return Crc32c(page.data(), static_cast<size_t>(kPageSize));
}

}  // namespace

PageId SimulatedDisk::AllocatePage() {
  std::lock_guard<std::mutex> lock(mutex_);
  pages_.push_back(std::make_unique<Page>());
  // Page ids start at 1; kNullPage (0) is reserved.
  return static_cast<PageId>(pages_.size());
}

void SimulatedDisk::EnsureAllocated(PageId id) {
  std::lock_guard<std::mutex> lock(mutex_);
  while (pages_.size() < static_cast<size_t>(id)) {
    pages_.push_back(std::make_unique<Page>());
  }
}

FaultInjector* SimulatedDisk::EnableFaults(FaultConfig config) {
  std::lock_guard<std::mutex> lock(mutex_);
  injector_ = std::make_unique<FaultInjector>(config);
  return injector_.get();
}

void SimulatedDisk::DisableFaults() {
  std::lock_guard<std::mutex> lock(mutex_);
  injector_.reset();
}

void SimulatedDisk::NoteReadRetry(int attempt) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.read_retries;
  reg_read_retries_->Add(1);
  // Exponential backoff: attempt k sleeps 2^(k-1) * retry_backoff_us of
  // modeled time.
  stats_.virtual_read_seconds +=
      config_.retry_backoff_us * std::ldexp(1.0, std::max(0, attempt - 1)) *
      1e-6;
}

void SimulatedDisk::NoteFaultHealed() {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.transient_faults_healed;
}

Status SimulatedDisk::ReadPage(PageId id, Page* out) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == kNullPage || id > pages_.size()) {
    return Status::InvalidArgument("read of unallocated page " +
                                   std::to_string(id));
  }
  if (injector_) {
    if (injector_->ShouldFailArmedRead()) {
      ++stats_.read_errors;
      reg_read_errors_->Add(1);
      return Status::Corruption("injected read fault on page " +
                                std::to_string(id));
    }
    if (injector_->ShouldFailRead(id)) {
      ++stats_.read_errors;
      reg_read_errors_->Add(1);
      return Status::Internal("transient read error on page " +
                              std::to_string(id));
    }
    int64_t byte = 0;
    int bit = 0;
    if (injector_->ShouldFlipBit(&byte, &bit)) {
      // Media rot: the stored image mutates, its checksum does not.
      pages_[id - 1]->data()[byte] ^=
          static_cast<uint8_t>(1u << bit);
    }
  }

  *out = *pages_[id - 1];
  if (checksums_enabled_) {
    auto it = checksums_.find(id);
    if (it != checksums_.end() && it->second != PageChecksum(*out)) {
      ++stats_.read_errors;
      ++stats_.checksum_failures;
      reg_read_errors_->Add(1);
      reg_checksum_failures_->Add(1);
      return Status::Corruption("checksum mismatch on page " +
                                std::to_string(id) +
                                " (torn or corrupted page)");
    }
  }

  stats_.pages_read++;
  stats_.bytes_read += kPageSize;
  reg_pages_read_->Add(1);
  reg_bytes_read_->Add(kPageSize);
  const double transfer_s =
      static_cast<double>(kPageSize) / (config_.sequential_mb_per_s * 1e6);
  PageId& last_read = last_read_by_thread_[std::this_thread::get_id()];
  if (last_read != kNullPage && id == last_read + 1) {
    stats_.sequential_reads++;
    stats_.virtual_read_seconds += transfer_s;
  } else {
    stats_.random_reads++;
    double gap_mb =
        last_read == kNullPage
            ? 1e9  // first touch: treat as a full seek
            : std::abs(static_cast<double>(id) -
                       static_cast<double>(last_read)) *
                  kPageSize / 1e6;
    double seek_us = std::min(
        config_.random_latency_us,
        config_.min_seek_us + config_.seek_us_per_mb * gap_mb);
    stats_.virtual_read_seconds += transfer_s + seek_us * 1e-6;
  }
  last_read = id;
  return Status::OK();
}

Status SimulatedDisk::CorruptPageByte(PageId id, int64_t offset) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == kNullPage || id > pages_.size() || offset < 0 ||
      offset >= kPageSize) {
    return Status::InvalidArgument("corruption target out of range");
  }
  pages_[id - 1]->data()[offset] ^= 0xFF;
  return Status::OK();
}

Status SimulatedDisk::WritePage(PageId id, const Page& page) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (id == kNullPage || id > pages_.size()) {
    return Status::InvalidArgument("write of unallocated page " +
                                   std::to_string(id));
  }

  bool stored = true;
  if (injector_) {
    int64_t keep = 0;
    if (injector_->ShouldDropWrite()) {
      // Lost write: the media keeps the old image while the controller acks
      // the new one — the new checksum is recorded, so the next read fails
      // verification instead of silently serving stale data.
      stored = false;
    } else if (injector_->ShouldTearWrite(&keep)) {
      // Torn write: only the prefix reaches the media.
      std::memcpy(pages_[id - 1]->data(), page.data(),
                  static_cast<size_t>(keep));
      stored = false;
    }
  }
  if (stored) *pages_[id - 1] = page;

  // An unverified write (PAGE_VERIFY NONE) leaves the page without a
  // checksum until it is rewritten with verification on; keeping the old
  // one would fail the next verified read of an intact page.
  if (checksums_enabled_) {
    checksums_[id] = PageChecksum(page);
  } else {
    checksums_.erase(id);
  }
  stats_.pages_written++;
  stats_.bytes_written += kPageSize;
  reg_pages_written_->Add(1);
  reg_bytes_written_->Add(kPageSize);
  stats_.virtual_write_seconds +=
      static_cast<double>(kPageSize) / (config_.write_mb_per_s * 1e6);
  return Status::OK();
}

}  // namespace sqlarray::storage
