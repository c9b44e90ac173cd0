#include "sim/fiber_switch.h"

#include <cstdint>

#ifndef FABRIC_FIBER_SWITCH_X86_64
#include <ucontext.h>

#include <cstdlib>
#include <new>
#endif

#ifdef FABRIC_FIBER_SWITCH_X86_64

// SysV x86-64 makes rbx, rbp, r12-r15, the MXCSR control bits and the x87
// control word callee-saved, and a call to SwitchStacks may clobber every
// other register, so those are all a switch keeps. The signal mask, which
// the fabric never changes, is not saved: that is the system call
// swapcontext makes on every switch and this one does not.
//
// A suspended stack, from its saved stack pointer up:
//   +0   MXCSR (4 bytes), x87 control word (2 bytes), padding
//   +8   r15, r14, r13, r12, rbx, rbp
//   +56  return address
// The CFI follows every push and pop, so an unwinder (a profiler's signal
// handler, say) can walk out of any instruction of the switch.
//
// A fresh stack holds that frame with the entry trampoline as return
// address and entry/arg in the r13/r12 slots. The trampoline's CFI marks
// the return address undefined, which ends every stack walk there; the
// nop before it keeps "return address - 1", where unwinders look up the
// caller, inside the trampoline's own unwind entry.
asm(R"(
  .pushsection .text
  .globl fabric_sim_SwitchStacks
  .type fabric_sim_SwitchStacks, @function
  .p2align 4
fabric_sim_SwitchStacks:
  .cfi_startproc
  pushq %rbp
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbp, 0
  pushq %rbx
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %rbx, 0
  pushq %r12
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r12, 0
  pushq %r13
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r13, 0
  pushq %r14
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r14, 0
  pushq %r15
  .cfi_adjust_cfa_offset 8
  .cfi_rel_offset %r15, 0
  subq $8, %rsp
  .cfi_adjust_cfa_offset 8
  stmxcsr (%rsp)
  fnstcw 4(%rsp)
  movq %rsp, (%rdi)
  movq %rsi, %rsp
  ldmxcsr (%rsp)
  fldcw 4(%rsp)
  addq $8, %rsp
  .cfi_adjust_cfa_offset -8
  popq %r15
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r15
  popq %r14
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r14
  popq %r13
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r13
  popq %r12
  .cfi_adjust_cfa_offset -8
  .cfi_restore %r12
  popq %rbx
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbx
  popq %rbp
  .cfi_adjust_cfa_offset -8
  .cfi_restore %rbp
  ret
  .cfi_endproc
  .size fabric_sim_SwitchStacks, .-fabric_sim_SwitchStacks

  .globl fabric_sim_FiberEntry
  .hidden fabric_sim_FiberEntry
  .type fabric_sim_FiberEntryFrame, @function
  .p2align 4
fabric_sim_FiberEntryFrame:
  .cfi_startproc
  .cfi_undefined rip
  nop
fabric_sim_FiberEntry:
  movq %r12, %rdi
  andq $-16, %rsp
  callq *%r13
  ud2
  .cfi_endproc
  .size fabric_sim_FiberEntryFrame, .-fabric_sim_FiberEntryFrame
  .popsection
)");

extern "C" const char fabric_sim_FiberEntry[];

namespace fabric::sim {
namespace {

// The suspended-stack layout above, as a fresh stack's first switch pops
// it.
struct FreshFrame {
  uint32_t mxcsr;
  uint16_t x87_control;
  uint16_t padding;
  uint64_t r15, r14, r13, r12, rbx, rbp;
  const void* return_address;
};
static_assert(sizeof(FreshFrame) == 64);

}  // namespace

void* PrepareStack(void* stack, size_t size, void (*entry)(void*), void* arg) {
  // The trampoline starts with the stack pointer just past the frame,
  // 16-byte aligned as the ABI wants at a call.
  const uintptr_t top =
      (reinterpret_cast<uintptr_t>(stack) + size) & ~uintptr_t{15};
  auto* frame = reinterpret_cast<FreshFrame*>(top - sizeof(FreshFrame));
  *frame = FreshFrame{};  // rbp = 0 also ends frame-pointer walks
  asm volatile("stmxcsr %0" : "=m"(frame->mxcsr));
  asm volatile("fnstcw %0" : "=m"(frame->x87_control));
  frame->r12 = reinterpret_cast<uintptr_t>(arg);
  frame->r13 = reinterpret_cast<uintptr_t>(entry);
  frame->return_address = fabric_sim_FiberEntry;
  return frame;
}

}  // namespace fabric::sim

#else  // ucontext fallback

namespace fabric::sim {
namespace {

// A fresh stack's context, carved from the top of the stack itself.
struct FreshContext {
  ucontext_t context;  // first, so the record's address is the context's
  void (*entry)(void*);
  void* arg;
};

// makecontext passes only ints, so the record arrives in 32-bit halves.
void StartFresh(uint32_t hi, uint32_t lo) {
  auto* fresh = reinterpret_cast<FreshContext*>(
      static_cast<uintptr_t>((uint64_t{hi} << 32) | lo));
  fresh->entry(fresh->arg);
  std::abort();  // entry leaves by switching away, never by returning
}

}  // namespace

void* PrepareStack(void* stack, size_t size, void (*entry)(void*), void* arg) {
  const auto base = reinterpret_cast<uintptr_t>(stack);
  const uintptr_t record =
      (base + size - sizeof(FreshContext)) & ~uintptr_t{15};
  auto* fresh = new (reinterpret_cast<void*>(record)) FreshContext{};
  if (getcontext(&fresh->context) != 0) std::abort();
  fresh->context.uc_stack.ss_sp = stack;
  fresh->context.uc_stack.ss_size = record - base;
  fresh->context.uc_link = nullptr;
  fresh->entry = entry;
  fresh->arg = arg;
  makecontext(&fresh->context, reinterpret_cast<void (*)()>(&StartFresh), 2,
              static_cast<uint32_t>(uint64_t{record} >> 32),
              static_cast<uint32_t>(record));
  return &fresh->context;
}

void SwitchStacks(void** save_sp, void* load_sp) {
  ucontext_t here;  // stays on the suspended stack until it is resumed
  *save_sp = &here;
  swapcontext(&here, static_cast<ucontext_t*>(load_sp));
}

}  // namespace fabric::sim

#endif
