// Fixture: <immintrin.h> is [[os_exclusive]] with an empty allow list —
// raw SIMD intrinsics anywhere (even inside src/core/) bypass the
// library-backed bit tables, so line 4 must be flagged.
#include <immintrin.h>

int fixture_simd_exclusive() { return 0; }
