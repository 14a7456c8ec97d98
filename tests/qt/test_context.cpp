#include "qt/context.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "qt/stack.hpp"

namespace ncs::qt {
namespace {

// Contexts used by the test fixtures. Plain globals: the tests are
// single-threaded and each sets these up before switching.
Context g_main;
Context g_fiber_a;
Context g_fiber_b;
std::vector<std::string> g_log;

void simple_entry(void* arg) {
  g_log.push_back("enter:" + std::string(static_cast<const char*>(arg)));
  Context::switch_to(g_fiber_a, g_main);
  g_log.push_back("resume");
  Context::switch_to(g_fiber_a, g_main);
  // never reached
}

TEST(Context, SwitchInAndOutPreservesControlFlow) {
  g_log.clear();
  Stack stack;
  g_fiber_a.init(stack, simple_entry, const_cast<char*>("x"));

  Context::switch_to(g_main, g_fiber_a);
  g_log.push_back("back-in-main");
  Context::switch_to(g_main, g_fiber_a);
  g_log.push_back("back-again");

  EXPECT_EQ(g_log, (std::vector<std::string>{"enter:x", "back-in-main", "resume", "back-again"}));
}

void arg_entry(void* arg) {
  *static_cast<int*>(arg) = 1234;
  Context::switch_to(g_fiber_a, g_main);
}

TEST(Context, ArgumentIsDeliveredToEntry) {
  Stack stack;
  int value = 0;
  g_fiber_a.init(stack, arg_entry, &value);
  Context::switch_to(g_main, g_fiber_a);
  EXPECT_EQ(value, 1234);
}

void ping_entry(void*);
void pong_entry(void*);

int g_ping_count = 0;

void ping_entry(void*) {
  for (int i = 0; i < 10; ++i) {
    ++g_ping_count;
    Context::switch_to(g_fiber_a, g_fiber_b);
  }
  Context::switch_to(g_fiber_a, g_main);
}

void pong_entry(void*) {
  for (;;) {
    ++g_ping_count;
    Context::switch_to(g_fiber_b, g_fiber_a);
  }
}

TEST(Context, FiberToFiberSwitching) {
  Stack sa, sb;
  g_ping_count = 0;
  g_fiber_a.init(sa, ping_entry, nullptr);
  g_fiber_b.init(sb, pong_entry, nullptr);
  Context::switch_to(g_main, g_fiber_a);
  EXPECT_EQ(g_ping_count, 20);
}

void locals_entry(void* arg) {
  // Locals on the fiber stack must survive a switch-out/switch-in.
  volatile double x = 3.5;
  volatile int y = 21;
  std::string s = "stack-local";
  Context::switch_to(g_fiber_a, g_main);
  *static_cast<bool*>(arg) = (x == 3.5 && y == 21 && s == "stack-local");
  Context::switch_to(g_fiber_a, g_main);
}

TEST(Context, StackLocalsSurviveSwitches) {
  Stack stack;
  bool ok = false;
  g_fiber_a.init(stack, locals_entry, &ok);
  Context::switch_to(g_main, g_fiber_a);
  Context::switch_to(g_main, g_fiber_a);
  EXPECT_TRUE(ok);
}

void fp_entry(void* arg) {
  // Floating-point computation interleaved across switches: callee-saved
  // FP control state must be preserved.
  double acc = 0.0;
  for (int i = 1; i <= 4; ++i) {
    acc += std::sqrt(static_cast<double>(i) * 2.0);
    Context::switch_to(g_fiber_a, g_main);
  }
  *static_cast<double*>(arg) = acc;
  Context::switch_to(g_fiber_a, g_main);
}

TEST(Context, FloatingPointAcrossSwitches) {
  Stack stack;
  double result = 0.0;
  g_fiber_a.init(stack, fp_entry, &result);
  double main_acc = 0.0;
  for (int i = 0; i < 5; ++i) {
    Context::switch_to(g_main, g_fiber_a);
    main_acc += std::sqrt(7.0);  // clobber FP regs on the main side
  }
  const double expected = std::sqrt(2.0) + std::sqrt(4.0) + std::sqrt(6.0) + std::sqrt(8.0);
  EXPECT_DOUBLE_EQ(result, expected);
  EXPECT_GT(main_acc, 0.0);
}

int deep_recurse(int depth) {
  volatile char frame[512];
  frame[0] = static_cast<char>(depth);
  if (depth == 0) return frame[0];
  return deep_recurse(depth - 1) + frame[0];
}

void deep_entry(void*) {
  // ~128 levels x >=512B frames: at least 64 KiB of stack.
  volatile int sink = deep_recurse(128);
  (void)sink;
  Context::switch_to(g_fiber_a, g_main);
}

TEST(Context, DeepStackUsageWithinLimitsWorks) {
  Stack stack(256 * 1024);
  g_fiber_a.init(stack, deep_entry, nullptr);
  Context::switch_to(g_main, g_fiber_a);
  EXPECT_GE(stack.high_watermark(), 64u * 1024u);
}

}  // namespace
}  // namespace ncs::qt
