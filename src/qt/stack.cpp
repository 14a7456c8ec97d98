#include "qt/stack.hpp"

#include <sys/mman.h>
#include <unistd.h>

#include <cstdint>
#include <utility>

#include "common/assert.hpp"

namespace ncs::qt {

namespace {

std::size_t page_size() {
  static const std::size_t ps = static_cast<std::size_t>(::sysconf(_SC_PAGESIZE));
  return ps;
}

std::size_t round_up(std::size_t v, std::size_t align) { return (v + align - 1) / align * align; }

}  // namespace

Stack::Stack(std::size_t size) {
  const std::size_t ps = page_size();
  size_ = round_up(size, ps);
  map_size_ = size_ + ps;  // one guard page below
  void* p = ::mmap(nullptr, map_size_, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  NCS_ASSERT_MSG(p != MAP_FAILED, "stack mmap failed");
  map_ = p;
  NCS_ASSERT_MSG(::mprotect(p, ps, PROT_NONE) == 0, "guard page mprotect failed");
  base_ = static_cast<char*>(p) + ps;
}

Stack::~Stack() {
  if (map_ != nullptr) ::munmap(map_, map_size_);
}

Stack::Stack(Stack&& other) noexcept
    : map_(std::exchange(other.map_, nullptr)),
      base_(std::exchange(other.base_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      map_size_(std::exchange(other.map_size_, 0)) {}

Stack& Stack::operator=(Stack&& other) noexcept {
  if (this != &other) {
    if (map_ != nullptr) ::munmap(map_, map_size_);
    map_ = std::exchange(other.map_, nullptr);
    base_ = std::exchange(other.base_, nullptr);
    size_ = std::exchange(other.size_, 0);
    map_size_ = std::exchange(other.map_size_, 0);
  }
  return *this;
}

std::size_t Stack::high_watermark() const {
  // Stacks grow down: scan up from the bottom for the first written word.
  // Reading an untouched page maps the shared zero page, not new memory.
  const auto* words = static_cast<const std::uint64_t*>(base_);
  const std::size_t n = size_ / sizeof(std::uint64_t);
  for (std::size_t i = 0; i < n; ++i) {
    if (words[i] != 0) return size_ - i * sizeof(std::uint64_t);
  }
  return 0;
}

}  // namespace ncs::qt
