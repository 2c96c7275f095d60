// Daemon start/stop churn: a serve::Server started and stopped at once,
// with no client ever connecting, must shut down every time.  This is the
// life cycle the bench registry test puts each serve case through.  A
// stop() that raced a worker still entering its queue wait (flag set and
// notified without the queue mutex) parked that worker forever and hung
// the join; the ctest TIMEOUT turns such a hang into a failure.
#include <gtest/gtest.h>

#include "serve/protocol.h"
#include "serve/server.h"
#include "timing/analyzer.h"

namespace awesim {
namespace {

TEST(ServeLifecycle, StartStopChurnNeverHangs) {
  constexpr int kCycles = 300;
  timing::AnalysisOptions analysis;
  analysis.threads = 1;
  serve::ServeOptions options;
  options.tcp_port = 0;  // ephemeral
  options.workers = 2;
  for (int i = 0; i < kCycles; ++i) {
    serve::Server server(serve::builtin_design("chain4"), analysis, options);
    server.start();
    ASSERT_GT(server.tcp_port(), 0) << "cycle " << i;
    server.stop();
  }
}

}  // namespace
}  // namespace awesim
