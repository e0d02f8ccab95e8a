#ifndef REDY_SIM_INLINE_FUNCTION_H_
#define REDY_SIM_INLINE_FUNCTION_H_

#include "common/inline_callable.h"

namespace redy::sim {

/// The engine's event callback: a move-only `void()` callable with a
/// 64-byte inline capture budget. Sized so the engine's hot lambdas (a
/// `this` pointer plus a handful of scalars, or a WorkCompletion and a
/// timestamp) fit with room to spare, while an EventRec stays within
/// two cache lines. Hot call sites static_assert `fits_inline<F>()` so
/// a capture-list growth that would silently de-optimize the scheduler
/// fails the build instead (see queue_pair.cc / poller.h).
using InlineFunction = common::InlineCallable<void(), 64>;

}  // namespace redy::sim

#endif  // REDY_SIM_INLINE_FUNCTION_H_
