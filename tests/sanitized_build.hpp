// Defines BEEPMIS_RSS_CHECK_SANITIZED in sanitizer builds.  Sanitizer
// shadow memory (and TSan's history buffers) inflate RSS by multiples, so
// the standalone RSS checks only assert their bounds in plain builds and
// run a small smoke of the same path under a sanitizer.
#pragma once

#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer)
#define BEEPMIS_RSS_CHECK_SANITIZED 1
#endif
#endif
#if !defined(BEEPMIS_RSS_CHECK_SANITIZED) && \
    (defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__))
#define BEEPMIS_RSS_CHECK_SANITIZED 1
#endif
