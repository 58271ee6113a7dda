/*
 * Compiled SG-DIA kernels for the "c" backend (repro/kernels/backend_c.py).
 *
 * Scope: scalar grids (ncomp == 1), SOA payloads, one unbatched vector,
 * payload {fp16, fp32, fp64} x compute {fp32, fp64}.  Function names are
 * <kernel>_<payload><compute> with h = fp16, f = fp32, d = fp64.
 *
 * Bit-parity contract with the numpy reference (repro/kernels/plan.py):
 * every cell accumulates its stencil terms in ascending offset order, each
 * term rounded as "convert coefficient to the compute type, multiply,
 * then add (SpMV) or subtract (GS)".  The build uses -ffp-contract=off so
 * no multiply-add is fused, and the vector paths only reorder *which
 * cells* are computed together, never the operations inside one cell.
 * The fp16 -> fp32 upcast is exact, so fusing it into the multiply
 * (vcvtph2ps) changes no result bit.
 */
#include <stddef.h>
#include <stdint.h>
#include <string.h>

#if defined(__AVX2__) && defined(__F16C__)
#include <immintrin.h>
#define REPRO_SIMD 1
#else
#define REPRO_SIMD 0
#endif

typedef uint16_t half_t;

static inline float half_to_float(half_t h)
{
#if REPRO_SIMD
    return _cvtsh_ss(h);
#else
    uint32_t sign = (uint32_t)(h & 0x8000u) << 16;
    uint32_t exp = (h >> 10) & 0x1fu;
    uint32_t man = h & 0x3ffu;
    uint32_t bits;
    if (exp == 0x1fu) {
        bits = sign | 0x7f800000u | (man << 13);   /* inf / nan */
    } else if (exp != 0) {
        bits = sign | ((exp + 112u) << 23) | (man << 13);
    } else if (man == 0) {
        bits = sign;                                 /* signed zero */
    } else {                                         /* subnormal */
        exp = 113;
        while (!(man & 0x400u)) {
            man <<= 1;
            --exp;
        }
        bits = sign | (exp << 23) | ((man & 0x3ffu) << 13);
    }
    float f;
    memcpy(&f, &bits, sizeof f);
    return f;
#endif
}

#define LOAD_h(v) half_to_float(v)
#define LOAD_f(v) (v)
#define LOAD_d(v) (v)

/* ------------------------------------------------------------------ */
/* row helpers: the only place arithmetic happens                      */
/* ------------------------------------------------------------------ */

/*
 * acc[z] = acc[z] OP c[z] * x[z] for z in [0, n): OP is + for the SpMV
 * and - for the Gauss-Seidel update.  ``avail`` is how many elements from
 * each of acc, c and x lie inside their arrays (at least n).
 */
#define DEFINE_ROW(NAME, OP, PN, PT, TN, TT)                              \
    static inline void NAME##_##PN##TN(TT *restrict acc,                  \
                                       const PT *restrict c,              \
                                       const TT *restrict x, int n,       \
                                       ptrdiff_t avail)                   \
    {                                                                     \
        (void)avail;                                                      \
        for (int z = 0; z < n; ++z)                                       \
            acc[z] = acc[z] OP (TT)LOAD_##PN(c[z]) * x[z];                \
    }

#if REPRO_SIMD
static inline __m256 load8_h(const half_t *c)
{
    return _mm256_cvtph_ps(_mm_loadu_si128((const __m128i *)c));
}

static inline __m256 load8_f(const float *c)
{
    return _mm256_loadu_ps(c);
}

/* Lanes [0, n) of a tail chunk (n < 8). */
static inline __m256 tail_mask(int n)
{
    return _mm256_castsi256_ps(_mm256_cmpgt_epi32(
        _mm256_set1_epi32(n), _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7)));
}

/*
 * fp16 / fp32 payload x fp32 compute, 8 cells per step; for fp16 the
 * upcast (vcvtph2ps) is fused into the multiply.  A partial last chunk is
 * computed on all 8 lanes and blended, so only its first n - z lanes
 * change, when those 8 lanes are inside the arrays.
 */
#define DEFINE_ROW_SIMD(NAME, OP, VOP, PN, PT)                            \
    static inline void NAME##_##PN##f(float *restrict acc,                \
                                      const PT *restrict c,               \
                                      const float *restrict x, int n,     \
                                      ptrdiff_t avail)                    \
    {                                                                     \
        int z = 0;                                                        \
        for (; z + 8 <= n; z += 8) {                                      \
            __m256 p = _mm256_mul_ps(load8_##PN(c + z), _mm256_loadu_ps(x + z)); \
            _mm256_storeu_ps(acc + z, VOP(_mm256_loadu_ps(acc + z), p));  \
        }                                                                 \
        if (z < n && z + 8 <= avail) {                                    \
            __m256 old = _mm256_loadu_ps(acc + z);                        \
            __m256 p = _mm256_mul_ps(load8_##PN(c + z), _mm256_loadu_ps(x + z)); \
            _mm256_storeu_ps(                                             \
                acc + z, _mm256_blendv_ps(old, VOP(old, p), tail_mask(n - z))); \
            return;                                                       \
        }                                                                 \
        for (; z < n; ++z)                                                \
            acc[z] = acc[z] OP (float)LOAD_##PN(c[z]) * x[z];             \
    }

#define DEFINE_ROWS_F(PN, PT)                                   \
    DEFINE_ROW_SIMD(madd_row, +, _mm256_add_ps, PN, PT)         \
    DEFINE_ROW_SIMD(msub_row, -, _mm256_sub_ps, PN, PT)
#else
#define DEFINE_ROWS_F(PN, PT)                                   \
    DEFINE_ROW(madd_row, +, PN, PT, f, float)                   \
    DEFINE_ROW(msub_row, -, PN, PT, f, float)
#endif

#define DEFINE_ROWS_D(PN, PT)                                   \
    DEFINE_ROW(madd_row, +, PN, PT, d, double)                  \
    DEFINE_ROW(msub_row, -, PN, PT, d, double)

DEFINE_ROWS_F(h, half_t)
DEFINE_ROWS_F(f, float)
DEFINE_ROW(madd_row, +, d, double, f, float)
DEFINE_ROW(msub_row, -, d, double, f, float)
DEFINE_ROWS_D(h, half_t)
DEFINE_ROWS_D(f, float)
DEFINE_ROWS_D(d, double)

static inline ptrdiff_t min3(ptrdiff_t a, ptrdiff_t b, ptrdiff_t c)
{
    ptrdiff_t m = a < b ? a : b;
    return m < c ? m : c;
}

/* ------------------------------------------------------------------ */
/* kernels                                                             */
/* ------------------------------------------------------------------ */

/*
 * y = A x, or y = Q^{1/2} (A xs) when q is non-NULL (the caller passes the
 * pre-scaled xs = Q^{1/2} x).  data: (ndiag, nx, ny, nz) SOA payload;
 * offs: ndiag (ox, oy, oz) triples in stencil order.
 *
 * One i plane at a time, diagonal by diagonal: each cell still takes its
 * terms in ascending offset order, while the payload is read as one
 * contiguous plane per diagonal instead of ndiag interleaved streams
 * (which, at power-of-two grid sizes, all map to the same cache sets).
 */
#define DEFINE_SPMV(PN, PT, TN, TT)                                        \
    void spmv_##PN##TN(const void *data_, const int32_t *offs, int ndiag,  \
                       int nx, int ny, int nz, const void *x_, void *y_,   \
                       const void *q_)                                     \
    {                                                                      \
        const PT *data = (const PT *)data_;                                \
        const TT *x = (const TT *)x_;                                      \
        const TT *q = (const TT *)q_;                                      \
        TT *y = (TT *)y_;                                                  \
        const ptrdiff_t ncell = (ptrdiff_t)nx * ny * nz;                   \
        const ptrdiff_t nplane = (ptrdiff_t)ny * nz;                       \
        for (int i = 0; i < nx; ++i) {                                     \
            TT *yp = y + i * nplane;                                       \
            for (ptrdiff_t k = 0; k < nplane; ++k)                         \
                yp[k] = 0;                                                 \
            for (int d = 0; d < ndiag; ++d) {                              \
                const int ii = i + offs[3 * d], oy = offs[3 * d + 1];      \
                const int oz = offs[3 * d + 2];                            \
                const int z0 = oz < 0 ? -oz : 0, z1 = oz > 0 ? nz - oz : nz; \
                if (ii < 0 || ii >= nx || z0 >= z1)                        \
                    continue;                                              \
                for (int j = oy < 0 ? -oy : 0; j < ny && j + oy < ny; ++j) { \
                    const ptrdiff_t row = i * nplane + (ptrdiff_t)j * nz;  \
                    const ptrdiff_t coff = d * ncell + row + z0;           \
                    const ptrdiff_t xoff =                                 \
                        ii * nplane + (ptrdiff_t)(j + oy) * nz + z0 + oz;  \
                    madd_row_##PN##TN(                                     \
                        y + row + z0, data + coff, x + xoff, z1 - z0,      \
                        min3(ncell - row - z0, ncell - xoff,               \
                             ndiag * ncell - coff));                       \
                }                                                          \
            }                                                              \
            if (q)                                                         \
                for (ptrdiff_t k = 0; k < nplane; ++k)                     \
                    yp[k] = yp[k] * q[i * nplane + k];                     \
        }                                                                  \
    }

/*
 * One 8-color Gauss-Seidel sweep, x updated in place.
 *
 * The colors are the parity classes (i%2, j%2, z%2), swept in
 * lexicographic order (forward) or its reverse.  A cell reads its
 * neighbours of earlier classes as updated and of later classes as not yet
 * updated; any schedule that keeps exactly those read states computes the
 * same bits as the class-by-class reference.  This one streams the grid
 * once instead of eight times:
 *
 * - within an i plane, the four classes run one after another, each as one
 *   pass over its rows, since cells of one plane couple only through
 *   j +- 1 and, inside a row, z +- 1;
 * - the planes of the class sweeping first (even i forward, odd i
 *   backward) lead by one: plane s, then plane s - 1 of the other parity,
 *   whose neighbour planes s - 2 and s are then both done, while a leading
 *   plane's neighbours s +- 1 are both still pending.
 *
 * A pass goes diagonal by diagonal over its rows, like the SpMV, with the
 * contiguous row loop: it computes every cell of a row and keeps only its
 * class's.  That costs twice the multiplies but no stride-2 shuffles; in a
 * row-by-row variant it timed the same as deinterleaving the class's lanes
 * in registers.
 * rhs: caller-provided scratch of ((ny + 1) / 2) * nz + 8 elements.
 */
#define DEFINE_GS(PN, PT, TN, TT)                                          \
    static void gs_pass_##PN##TN(const PT *data, const int32_t *offs,      \
                                 int ndiag, int diag, int nx, int ny,      \
                                 int nz, int i, int j0, int c2,            \
                                 const TT *b, TT *x, const TT *dinv,       \
                                 TT *rhs)                                  \
    {                                                                      \
        const ptrdiff_t ncell = (ptrdiff_t)nx * ny * nz;                   \
        const ptrdiff_t nplane = (ptrdiff_t)ny * nz;                       \
        const ptrdiff_t nrhs = (ptrdiff_t)((ny - j0 + 1) / 2) * nz + 8;    \
        for (int j = j0, r = 0; j < ny; j += 2, ++r)                       \
            memcpy(rhs + (ptrdiff_t)r * nz, b + i * nplane + (ptrdiff_t)j * nz, \
                   (size_t)nz * sizeof(TT));                               \
        for (int d = 0; d < ndiag; ++d) {                                  \
            const int ii = i + offs[3 * d], oy = offs[3 * d + 1];          \
            const int oz = offs[3 * d + 2];                                \
            const int z0 = oz < 0 ? -oz : 0, z1 = oz > 0 ? nz - oz : nz;   \
            if (d == diag || ii < 0 || ii >= nx || z0 >= z1)               \
                continue;                                                  \
            for (int j = j0, r = 0; j < ny; j += 2, ++r) {                 \
                if (j + oy < 0 || j + oy >= ny)                            \
                    continue;                                              \
                const ptrdiff_t row = i * nplane + (ptrdiff_t)j * nz;      \
                const ptrdiff_t coff = d * ncell + row + z0;               \
                const ptrdiff_t xoff =                                     \
                    ii * nplane + (ptrdiff_t)(j + oy) * nz + z0 + oz;      \
                const ptrdiff_t roff = (ptrdiff_t)r * nz + z0;             \
                msub_row_##PN##TN(rhs + roff, data + coff, x + xoff,       \
                                  z1 - z0,                                 \
                                  min3(nrhs - roff, ncell - xoff,          \
                                       ndiag * ncell - coff));             \
            }                                                              \
        }                                                                  \
        for (int j = j0, r = 0; j < ny; j += 2, ++r) {                     \
            const ptrdiff_t row = i * nplane + (ptrdiff_t)j * nz;          \
            for (int z = c2; z < nz; z += 2)                               \
                x[row + z] = dinv[row + z] * rhs[(ptrdiff_t)r * nz + z];   \
        }                                                                  \
    }                                                                      \
                                                                           \
    static void gs_plane_##PN##TN(const PT *data, const int32_t *offs,     \
                                  int ndiag, int diag, int nx, int ny,     \
                                  int nz, int i, int first, const TT *b,   \
                                  TT *x, const TT *dinv, TT *rhs)          \
    {                                                                      \
        for (int cj = 0; cj < 2; ++cj)                                     \
            for (int cz = 0; cz < 2; ++cz)                                 \
                gs_pass_##PN##TN(data, offs, ndiag, diag, nx, ny, nz, i,   \
                                 cj ^ first, cz ^ first, b, x, dinv, rhs); \
    }                                                                      \
                                                                           \
    void gs_##PN##TN(const void *data_, const int32_t *offs, int ndiag,    \
                     int diag, int nx, int ny, int nz, const void *b_,     \
                     void *x_, const void *dinv_, int forward, void *rhs_) \
    {                                                                      \
        const PT *data = (const PT *)data_;                                \
        const TT *b = (const TT *)b_, *dinv = (const TT *)dinv_;           \
        TT *x = (TT *)x_, *rhs = (TT *)rhs_;                               \
        const int first = forward ? 0 : 1; /* parity swept first */       \
        for (int s = first; s <= nx; s += 2) {                             \
            if (s < nx)                                                    \
                gs_plane_##PN##TN(data, offs, ndiag, diag, nx, ny, nz, s,  \
                                  first, b, x, dinv, rhs);                 \
            if (s >= 1)                                                    \
                gs_plane_##PN##TN(data, offs, ndiag, diag, nx, ny, nz,     \
                                  s - 1, first, b, x, dinv, rhs);          \
        }                                                                  \
    }

#define DEFINE_KERNELS(PN, PT, TN, TT) \
    DEFINE_SPMV(PN, PT, TN, TT)        \
    DEFINE_GS(PN, PT, TN, TT)

DEFINE_KERNELS(h, half_t, f, float)
DEFINE_KERNELS(f, float, f, float)
DEFINE_KERNELS(d, double, f, float)
DEFINE_KERNELS(h, half_t, d, double)
DEFINE_KERNELS(f, float, d, double)
DEFINE_KERNELS(d, double, d, double)

/* 1 when built with the fused AVX2/F16C paths, 0 for the portable build. */
int repro_simd(void)
{
    return REPRO_SIMD;
}
