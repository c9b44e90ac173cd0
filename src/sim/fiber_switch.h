#ifndef FABRIC_SIM_FIBER_SWITCH_H_
#define FABRIC_SIM_FIBER_SWITCH_H_

#include <cstddef>

// The two calls the engine switches stacks with. A suspended context is
// one opaque pointer: on x86-64 the stack pointer it stopped at, with its
// callee-saved registers and floating-point control state pushed there;
// elsewhere a ucontext_t on that stack. The choice is made at compile
// time.
#if defined(__x86_64__)
#define FABRIC_FIBER_SWITCH_X86_64 1
#endif

namespace fabric::sim {

// Prepares the fresh stack [stack, stack + size) so that the first
// SwitchStacks into the returned context calls entry(arg) on it. `entry`
// must never return: it leaves with a final SwitchStacks. A fresh context
// starts with the floating-point control state current at this call.
void* PrepareStack(void* stack, size_t size, void (*entry)(void*), void* arg);

// Suspends the calling context into *save_sp and resumes `load_sp`, a
// context from PrepareStack or an earlier SwitchStacks. Returns once some
// later switch resumes *save_sp. The x86-64 definition is assembly, hence
// the plain symbol name.
void SwitchStacks(void** save_sp, void* load_sp) __asm__(
    "fabric_sim_SwitchStacks");

}  // namespace fabric::sim

#endif  // FABRIC_SIM_FIBER_SWITCH_H_
