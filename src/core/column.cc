#include "core/column.h"

#include <cstring>

namespace sqlarray::col {
namespace {

uint64_t* MutableValidity_FillAllValid(std::vector<uint64_t>* valid,
                                       int32_t n) {
  const int32_t words = ValidityWords(n);
  valid->assign(words, ~uint64_t{0});
  // Tail bits past n stay zero so word-wise popcounts need no masking.
  const int32_t tail = n & 63;
  if (words > 0 && tail != 0) {
    (*valid)[words - 1] = (~uint64_t{0}) >> (64 - tail);
  }
  return valid->data();
}

}  // namespace

uint64_t* ColumnVec::MutableValidity() {
  if (valid_.empty()) {
    return MutableValidity_FillAllValid(&valid_, n_);
  }
  return valid_.data();
}

void ColumnVec::SetAllNull() {
  valid_.assign(ValidityWords(n_), 0);
  if (valid_.empty()) valid_.push_back(0);  // n_ == 0: still "not all valid"
}

void ColumnVec::IntersectValidity(const ColumnVec& a, const ColumnVec& b) {
  if (a.all_valid() && b.all_valid()) {
    valid_.clear();
    return;
  }
  const int32_t words = ValidityWords(n_);
  valid_.resize(words > 0 ? words : 1);
  if (a.all_valid()) {
    std::memcpy(valid_.data(), b.valid_.data(),
                static_cast<size_t>(words) * 8);
    return;
  }
  if (b.all_valid()) {
    std::memcpy(valid_.data(), a.valid_.data(),
                static_cast<size_t>(words) * 8);
    return;
  }
  for (int32_t w = 0; w < words; ++w) {
    valid_[w] = a.valid_[w] & b.valid_[w];
  }
}

void ColumnVec::CopyValidity(const ColumnVec& a) {
  if (a.all_valid()) {
    valid_.clear();
    return;
  }
  const int32_t words = ValidityWords(n_);
  valid_.resize(words > 0 ? words : 1);
  std::memcpy(valid_.data(), a.valid_.data(), static_cast<size_t>(words) * 8);
}

}  // namespace sqlarray::col
