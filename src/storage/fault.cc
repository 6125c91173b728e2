#include "storage/fault.h"

namespace sqlarray::storage {

bool FaultInjector::ShouldFailArmedRead() {
  if (read_fault_countdown_ == 0) {
    read_fault_countdown_ = -1;
    return true;
  }
  if (read_fault_countdown_ > 0) --read_fault_countdown_;
  return false;
}

bool FaultInjector::ShouldFailRead(PageId id) {
  auto it = targeted_transient_.find(id);
  if (it != targeted_transient_.end()) {
    if (it->second > 0) {
      if (--it->second == 0) targeted_transient_.erase(it);
      ++stats_.transient_read_errors;
      return true;
    }
    targeted_transient_.erase(it);
  }
  if (Draw(config_.transient_read_error_rate)) {
    ++stats_.transient_read_errors;
    return true;
  }
  return false;
}

bool FaultInjector::ShouldFlipBit(int64_t* byte_offset, int* bit) {
  if (!Draw(config_.bit_flip_rate)) return false;
  *byte_offset = static_cast<int64_t>(
      std::uniform_int_distribution<int64_t>(0, kPageSize - 1)(rng_));
  *bit = static_cast<int>(std::uniform_int_distribution<int>(0, 7)(rng_));
  ++stats_.bit_flips;
  return true;
}

bool FaultInjector::ShouldTearWrite(int64_t* keep_bytes) {
  if (!Draw(config_.torn_write_rate)) return false;
  // A torn page keeps at least one sector's worth and never the whole page.
  *keep_bytes =
      std::uniform_int_distribution<int64_t>(512, kPageSize - 512)(rng_);
  ++stats_.torn_writes;
  return true;
}

bool FaultInjector::ShouldDropWrite() {
  if (!Draw(config_.dropped_write_rate)) return false;
  ++stats_.dropped_writes;
  return true;
}

}  // namespace sqlarray::storage
