// require(): a passing check with a literal message must not touch the
// heap (the cap loop runs several per node_draw), and a failing one
// must still throw bvl::Error carrying the whole message.
#include "util/error.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

namespace {

std::atomic<long> g_news{0};

}  // namespace

// Counting replacements of the global allocation functions for this
// test binary; every other test sees plain malloc/free behaviour.
void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace bvl {
namespace {

// Well past libstdc++'s 15-char small-string buffer: building a
// std::string from it must allocate.
constexpr const char* kLongMessage =
    "require: a message much longer than the small-string buffer";

/// Keeps the optimizer from folding the condition into the call site.
bool opaque(bool v) {
  volatile bool b = v;
  return b;
}

TEST(Require, PassingCheckWithALiteralDoesNotAllocate) {
  long before = g_news.load();
  for (int i = 0; i < 100; ++i) require(opaque(true), kLongMessage);
  EXPECT_EQ(g_news.load() - before, 0);
}

TEST(Require, FailingCheckThrowsTheFullMessage) {
  try {
    require(opaque(false), kLongMessage);
    FAIL() << "require(false, ...) returned";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), kLongMessage);
  }
  std::string composed = std::string(kLongMessage) + " #" + std::to_string(7);
  try {
    require(opaque(false), composed);
    FAIL() << "require(false, std::string) returned";
  } catch (const Error& e) {
    EXPECT_EQ(std::string(e.what()), composed);
  }
}

}  // namespace
}  // namespace bvl
