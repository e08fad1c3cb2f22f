// Runtime ISA dispatch for numeric hot loops.
//
// The build targets baseline x86-64 so binaries stay portable, but a few
// dense kernels (nn/gin_kernel.cc, the Lipschitz displacement reduction)
// gain 2-4x from AVX2/AVX-512 vectors. The library builds with
// -ffp-contract=off, so no clone fuses a*b+c into an FMA and every clone
// rounds exactly like the baseline one. SGCL_TARGET_CLONES
// compiles the annotated function once per listed ISA level and installs
// an ifunc resolver that picks the best clone for the running CPU at
// load time.
//
// noinline matters: without it GCC can inline the baseline clone into
// the caller and skip the ifunc dispatch entirely. The reverse holds for
// helpers an annotated function calls: mark them [[gnu::always_inline]],
// or GCC may emit a helper once, for the baseline ISA, and call that
// copy from every clone.
//
// Disabled under ThreadSanitizer/AddressSanitizer: their runtimes are
// not initialized yet when the dynamic loader runs ifunc resolvers, so
// instrumented binaries with target_clones crash before main().
#ifndef SGCL_COMMON_SIMD_H_
#define SGCL_COMMON_SIMD_H_

#if defined(__x86_64__) && defined(__ELF__) && defined(__GNUC__) && \
    !defined(__clang__) && !defined(__SANITIZE_THREAD__) &&         \
    !defined(__SANITIZE_ADDRESS__)
#define SGCL_TARGET_CLONES                                                    \
  __attribute__((noinline, target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                         "default")))
#else
#define SGCL_TARGET_CLONES
#endif

#endif  // SGCL_COMMON_SIMD_H_
