#include "autodiff/tape_pool.h"

#include <utility>

namespace subrec::autodiff {

std::unique_ptr<Tape> TapePool::Acquire() {
  {
    common::MutexLock lock(&mu_);
    if (!free_.empty()) {
      std::unique_ptr<Tape> t = std::move(free_.back());
      free_.pop_back();
      return t;
    }
  }
  return std::make_unique<Tape>();
}

void TapePool::Release(std::unique_ptr<Tape> tape) {
  if (tape == nullptr) return;
  tape->Reset();
  common::MutexLock lock(&mu_);
  free_.push_back(std::move(tape));
}

size_t TapePool::idle() const {
  common::MutexLock lock(&mu_);
  return free_.size();
}

size_t TapePool::bytes_reserved() const {
  common::MutexLock lock(&mu_);
  size_t bytes = 0;
  for (const auto& t : free_) bytes += t->bytes_reserved();
  return bytes;
}

}  // namespace subrec::autodiff
