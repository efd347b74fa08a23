/**
 * @file
 * Test double for the serve daemon's compute seam
 * (ServeOptions::compute): a backend that holds each cell until the
 * test releases it, then computes it in-process.
 */

#ifndef LTP_TESTS_HELD_BACKEND_HH
#define LTP_TESTS_HELD_BACKEND_HH

#include <future>
#include <string>

#include "sim/exec_backend.hh"

namespace ltp {

/** Blocks every cell until release(), then delegates to LocalBackend. */
class HeldBackend : public ExecBackend
{
  public:
    std::string name() const override { return "held"; }

    CellResult
    runCell(const CellKey &key, const SimConfig &cfg,
            const std::string &workload, const RunLengths &lengths,
            const SamplePlan &sampling) override
    {
        started_.set_value(); // one held cell per test
        released_.wait();
        return local_.runCell(key, cfg, workload, lengths, sampling);
    }

    /** Block until a cell has reached the backend. */
    void waitStarted() { started_.get_future().wait(); }

    void release() { release_.set_value(); }

  private:
    std::promise<void> started_;
    std::promise<void> release_;
    std::shared_future<void> released_ = release_.get_future().share();
    LocalBackend local_;
};

} // namespace ltp

#endif // LTP_TESTS_HELD_BACKEND_HH
