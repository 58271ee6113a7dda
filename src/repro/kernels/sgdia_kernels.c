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
 *
 * The grid transfers (xfer_f / xfer_d, at the end) apply a prolongation
 * or restriction as a tensor product of 1-D tables, with the sum order and
 * weight rounding of the CSR product they replace (see there).
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

/* ------------------------------------------------------------------ */
/* grid transfers                                                      */
/* ------------------------------------------------------------------ */

/*
 * One axis of a transfer direction (repro/coarsen/transfer.py AxisTable):
 * output o reads, in band r < nband, input ((o * mul) >> shift) + off + r
 * with weight weight[r * n_out + o]; a zero weight means no term.
 */
typedef struct {
    int n_out, n_in, nband, mul, shift, off;
    int identity; /* output o = input o, weight 1 */
    const float *weight;
} xfer_axis;

/*
 * y = T x (or y += T x when add) for the tensor product T of the three
 * axis tables ax[0..2], on C-order fields of n_in / n_out points per axis.
 *
 * Bit-parity with the CSR product (scipy csr_matvec) it replaces: each
 * output sums from +0 its terms in lexicographic input order (x band, then
 * y band, then z band); a term is w * x with w = (wx * wy) * wz, which the
 * caller guarantees is exact in fp32 (so it equals the CSR's fp32 entry),
 * widened to the compute type; with add, the finished sum is added to y.
 * Outputs without a term in a band add +0 there, which changes no sum (a
 * sum started from +0 never reads -0).
 *
 * The (x, y) terms of an output row are listed once per row; the vector
 * paths then run 8 (fp32) or 4 (fp64) z outputs in lanes, the partial
 * last chunk included.  A band's inputs for a chunk are one contiguous
 * run of the source row (z factor 1), the run with each point doubled
 * (prolongation by 2) or its even points (restriction by 2), and are
 * gathered for other steps.  When y and z are identities, whole planes
 * take the place of rows.
 */
#define XFER_MAX_PAIRS 64
#define XFER_MAX_BANDS 8

static inline int xfer_input(const xfer_axis *t, int o, int r)
{
    return (int)(((ptrdiff_t)o * t->mul) >> t->shift) + t->off + r;
}

#define DEFINE_XFER_PAIRS(TN, TT)                                          \
    /* Source rows and fp32 weights wx * wy of output row (i, j). */      \
    static inline __attribute__((always_inline)) int xfer_pairs_##TN(     \
        const xfer_axis *tx, const xfer_axis *ty,                          \
        ptrdiff_t nzi, const TT *x, int i, int j, const TT **rows,         \
        float *wab)                                                        \
    {                                                                      \
        const int ia = xfer_input(tx, i, 0), jb = xfer_input(ty, j, 0);    \
        int np = 0;                                                        \
        for (int a = 0; a < tx->nband; ++a) {                              \
            const float wa = tx->weight[(ptrdiff_t)a * tx->n_out + i];     \
            if (wa == 0)                                                   \
                continue;                                                  \
            for (int b = 0; b < ty->nband; ++b) {                          \
                const float wb = ty->weight[(ptrdiff_t)b * ty->n_out + j]; \
                if (wb == 0)                                               \
                    continue;                                              \
                rows[np] = x + ((ptrdiff_t)(ia + a) * ty->n_in + jb + b) * nzi; \
                wab[np++] = wa * wb;                                       \
            }                                                              \
        }                                                                  \
        return np;                                                         \
    }

DEFINE_XFER_PAIRS(f, float)
DEFINE_XFER_PAIRS(d, double)

#if !REPRO_SIMD
/*
 * Portable path: each output sums its terms in a register, like a CSR
 * row, over the (x, y) terms of its row and the z bands it has; the
 * fields of the z table are read into locals once per row.
 */
#define DEFINE_XFER_SCALAR(TN, TT)                                         \
    static void xfer_##TN##_rows(const xfer_axis *ax, const TT *x,         \
                                 TT *restrict y, int add)                  \
    {                                                                      \
        const xfer_axis *tx = ax, *ty = ax + 1, *tz = ax + 2;              \
        const int nyo = ty->n_out, nzo = tz->n_out, nzi = tz->n_in;        \
        const int nb = tz->nband, mul = tz->mul, shift = tz->shift;        \
        const int off = tz->off;                                           \
        const float *restrict wz = tz->weight;                             \
        const TT *rows[XFER_MAX_PAIRS];                                    \
        float wab[XFER_MAX_PAIRS];                                         \
        for (int i = 0; i < tx->n_out; ++i)                                \
            for (int j = 0; j < nyo; ++j) {                                \
                TT *restrict yrow = y + ((ptrdiff_t)i * nyo + j) * nzo;    \
                const int np =                                             \
                    xfer_pairs_##TN(tx, ty, nzi, x, i, j, rows, wab);      \
                for (int k = 0; k < nzo; ++k) {                            \
                    const int in = (int)(((ptrdiff_t)k * mul) >> shift) + off; \
                    TT s = 0;                                              \
                    for (int p = 0; p < np; ++p) {                         \
                        const TT *restrict row = rows[p];                  \
                        for (int c = 0; c < nb; ++c) {                     \
                            const float w = wz[(ptrdiff_t)c * nzo + k];    \
                            if (w != 0)                                    \
                                s = s + (TT)(wab[p] * w) * row[in + c];    \
                        }                                                  \
                    }                                                      \
                    yrow[k] = add ? yrow[k] + s : s;                       \
                }                                                          \
            }                                                              \
    }

DEFINE_XFER_SCALAR(f, float)
DEFINE_XFER_SCALAR(d, double)

void xfer_f(const xfer_axis *ax, const void *x, void *y, int add)
{
    xfer_f_rows(ax, (const float *)x, (float *)y, add);
}

void xfer_d(const xfer_axis *ax, const void *x, void *y, int add)
{
    xfer_d_rows(ax, (const double *)x, (double *)y, add);
}
#else
/* Lanes [0, n) of 8 (fp32) or 4 (fp64, one int32 per lane). */
static inline __m256i xlanes8(int n)
{
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(n),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

static inline __m128i xlanes4(int n)
{
    return _mm_cmpgt_epi32(_mm_set1_epi32(n), _mm_setr_epi32(0, 1, 2, 3));
}

/*
 * Per chunk and band, the masks of the points of the (one or two) source
 * runs that lie inside the row, so that every load is a masked load:
 * run [s, s + NL) and, for EVEN, [s + NL, s + 2 NL).
 */
static inline __m256i xinside_f(ptrdiff_t s, ptrdiff_t n)
{
    return _mm256_andnot_si256(xlanes8((int)-s), xlanes8((int)(n - s)));
}

static inline __m256i xinside_d(ptrdiff_t s, ptrdiff_t n)
{
    return _mm256_cvtepi32_epi64(_mm_andnot_si128(xlanes4((int)-s), xlanes4((int)(n - s))));
}

#define XLOAD_f(p, m) _mm256_maskload_ps(p, m)
#define XLOAD_d(p, m) _mm256_maskload_pd(p, m)

/*
 * The inputs of one band for a chunk of z outputs, whose first input is
 * row[s], with m0 / m1 the masks of the runs at s and s + NL: RUN for
 * unit steps, DUP for (o >> 1), EVEN for 2 o, and GATHER (lane offsets
 * idx from the first input) otherwise; 0 outside the row.
 */
#define XBAND_RUN_f(row, s, m0, m1, n, idx) XLOAD_f(row + s, m0)
#define XBAND_DUP_f(row, s, m0, m1, n, idx)                               \
    _mm256_permutevar8x32_ps(XLOAD_f(row + s, m0),                         \
                             _mm256_setr_epi32(0, 0, 1, 1, 2, 2, 3, 3))
#define XBAND_EVEN_f(row, s, m0, m1, n, idx) xeven_f(row + s, m0, m1)
#define XBAND_GATHER_f(row, s, m0, m1, n, idx) xgather_f(row, s, n, idx)
#define XBAND_RUN_d(row, s, m0, m1, n, idx) XLOAD_d(row + s, m0)
#define XBAND_DUP_d(row, s, m0, m1, n, idx)                               \
    _mm256_permute4x64_pd(XLOAD_d(row + s, m0), _MM_SHUFFLE(1, 1, 0, 0))
#define XBAND_EVEN_d(row, s, m0, m1, n, idx) xeven_d(row + s, m0, m1)
#define XBAND_GATHER_d(row, s, m0, m1, n, idx) xgather_d(row, s, n, idx)

static inline __m256 xeven_f(const float *p, __m256i m0, __m256i m1)
{
    const __m256 ev = _mm256_shuffle_ps(XLOAD_f(p, m0), XLOAD_f(p + 8, m1),
                                        _MM_SHUFFLE(2, 0, 2, 0));
    return _mm256_castpd_ps(
        _mm256_permute4x64_pd(_mm256_castps_pd(ev), _MM_SHUFFLE(3, 1, 2, 0)));
}

static inline __m256d xeven_d(const double *p, __m256i m0, __m256i m1)
{
    return _mm256_permute4x64_pd(
        _mm256_unpacklo_pd(XLOAD_d(p, m0), XLOAD_d(p + 4, m1)),
        _MM_SHUFFLE(3, 1, 2, 0));
}

static inline __m256 xgather_f(const float *row, ptrdiff_t s, ptrdiff_t n,
                               __m256i idx)
{
    const __m256i at = _mm256_add_epi32(idx, _mm256_set1_epi32((int)s));
    const __m256i in = _mm256_andnot_si256(
        _mm256_cmpgt_epi32(_mm256_setzero_si256(), at),
        _mm256_cmpgt_epi32(_mm256_set1_epi32((int)n), at));
    return _mm256_mask_i32gather_ps(_mm256_setzero_ps(), row, at,
                                    _mm256_castsi256_ps(in), 4);
}

static inline __m256d xgather_d(const double *row, ptrdiff_t s, ptrdiff_t n,
                                __m128i idx)
{
    const __m128i at = _mm_add_epi32(idx, _mm_set1_epi32((int)s));
    const __m128i in = _mm_andnot_si128(_mm_cmpgt_epi32(_mm_setzero_si128(), at),
                                        _mm_cmpgt_epi32(_mm_set1_epi32((int)n), at));
    return _mm256_mask_i32gather_pd(_mm256_setzero_pd(), row, at,
                                    _mm256_castsi256_pd(_mm256_cvtepi32_epi64(in)), 8);
}

/* Lane offsets of a chunk's inputs from its first input (GATHER). */
static inline __m256i xoffsets_f(const xfer_axis *tz, int k)
{
    int32_t idx[8];
    for (int l = 0; l < 8; ++l)
        idx[l] = xfer_input(tz, k + l, 0) - xfer_input(tz, k, 0);
    return _mm256_loadu_si256((const __m256i *)idx);
}

static inline __m128i xoffsets_d(const xfer_axis *tz, int k)
{
    int32_t idx[4];
    for (int l = 0; l < 4; ++l)
        idx[l] = xfer_input(tz, k + l, 0) - xfer_input(tz, k, 0);
    return _mm_loadu_si128((const __m128i *)idx);
}

#define XZERO_f _mm256_setzero_ps()
#define XZERO_d _mm256_setzero_pd()
#define XLANES_f xlanes8
#define XLANES_d xlanes4

/* band weights of the chunk (0 where no term) and their nonzero mask */
static inline __m256 xweight_f(const float *w, __m256i live, __m256 *nz)
{
    const __m256 v = _mm256_maskload_ps(w, live);
    *nz = _mm256_cmp_ps(v, _mm256_setzero_ps(), _CMP_NEQ_UQ);
    return v;
}

static inline __m256d xweight_d(const float *w, __m128i live, __m256d *nz)
{
    const __m256d v = _mm256_cvtps_pd(_mm_maskload_ps(w, live));
    *nz = _mm256_cmp_pd(v, _mm256_setzero_pd(), _CMP_NEQ_UQ);
    return v;
}

/* s + (wab * w) * v in the lanes where w is nonzero, s elsewhere. */
static inline __m256 xterm_f(__m256 s, float wab, __m256 w, __m256 nz, __m256 v)
{
    const __m256 t = _mm256_mul_ps(_mm256_mul_ps(_mm256_set1_ps(wab), w), v);
    return _mm256_add_ps(s, _mm256_and_ps(t, nz));
}

static inline __m256d xterm_d(__m256d s, float wab, __m256d w, __m256d nz,
                              __m256d v)
{
    /* wab * w is exact in fp32, hence in fp64 */
    const __m256d t = _mm256_mul_pd(_mm256_mul_pd(_mm256_set1_pd(wab), w), v);
    return _mm256_add_pd(s, _mm256_and_pd(t, nz));
}

static inline void xstore_f(float *y, __m256 s, __m256i live, int add)
{
    if (add)
        s = _mm256_add_ps(_mm256_maskload_ps(y, live), s);
    _mm256_maskstore_ps(y, live, s);
}

static inline void xstore_d(double *y, __m256d s, __m128i live, int add)
{
    const __m256i wide = _mm256_cvtepi32_epi64(live);
    if (add)
        s = _mm256_add_pd(_mm256_maskload_pd(y, wide), s);
    _mm256_maskstore_pd(y, wide, s);
}

/*
 * One kernel per (type, band input pattern).  The z outputs go in blocks
 * of XFER_ZCHUNKS chunks of NL; a block's band weights and load masks,
 * which do not depend on the row, are set up once for all rows.
 */
#define XFER_ZCHUNKS 8

#define DEFINE_XFER_SIMD(TN, TT, VT, MT, IT, NL, MODE)                     \
    static void xfer_##TN##_##MODE(const xfer_axis *ax, const TT *x,       \
                                   TT *y, int add)                         \
    {                                                                      \
        const xfer_axis *tx = ax, *ty = ax + 1, *tz = ax + 2;              \
        const int nyo = ty->n_out, nzo = tz->n_out, nzi = tz->n_in;        \
        const int nb = tz->nband;                                          \
        const TT *rows[XFER_MAX_PAIRS];                                    \
        float wab[XFER_MAX_PAIRS];                                         \
        VT w[XFER_ZCHUNKS][XFER_MAX_BANDS], nz[XFER_ZCHUNKS][XFER_MAX_BANDS]; \
        __m256i m0[XFER_ZCHUNKS][XFER_MAX_BANDS];                          \
        __m256i m1[XFER_ZCHUNKS][XFER_MAX_BANDS];                          \
        MT live[XFER_ZCHUNKS];                                             \
        IT idx[XFER_ZCHUNKS];                                              \
        int s0[XFER_ZCHUNKS];                                              \
        (void)m0, (void)m1, (void)idx; /* not every pattern reads them */ \
        for (int kb = 0; kb < nzo; kb += XFER_ZCHUNKS * NL) {              \
            const int nq = (nzo - kb + NL - 1) / NL < XFER_ZCHUNKS         \
                               ? (nzo - kb + NL - 1) / NL : XFER_ZCHUNKS;  \
            for (int q = 0; q < nq; ++q) {                                 \
                const int k = kb + q * NL;                                 \
                live[q] = XLANES_##TN(nzo - k);                            \
                s0[q] = xfer_input(tz, k, 0);                              \
                idx[q] = xoffsets_##TN(tz, k);                             \
                for (int c = 0; c < nb; ++c) {                             \
                    w[q][c] = xweight_##TN(tz->weight + (ptrdiff_t)c * nzo + k, \
                                           live[q], &nz[q][c]);            \
                    m0[q][c] = xinside_##TN(s0[q] + c, nzi);               \
                    m1[q][c] = xinside_##TN(s0[q] + c + NL, nzi);          \
                }                                                          \
            }                                                              \
            for (int i = 0; i < tx->n_out; ++i)                            \
                for (int j = 0; j < nyo; ++j) {                            \
                    TT *yrow = y + ((ptrdiff_t)i * nyo + j) * nzo + kb;    \
                    const int np =                                         \
                        xfer_pairs_##TN(tx, ty, nzi, x, i, j, rows, wab);  \
                    for (int q = 0; q < nq; ++q) {                         \
                        VT s = XZERO_##TN;                                 \
                        for (int p = 0; p < np; ++p)                       \
                            for (int c = 0; c < nb; ++c)                   \
                                s = xterm_##TN(                            \
                                    s, wab[p], w[q][c], nz[q][c],          \
                                    XBAND_##MODE##_##TN(rows[p], s0[q] + c, \
                                                        m0[q][c], m1[q][c], \
                                                        nzi, idx[q]));     \
                        xstore_##TN(yrow + q * NL, s, live[q], add);       \
                    }                                                      \
                }                                                          \
        }                                                                  \
    }

/*
 * y and z identities (coarsening along x only): each output x plane sums
 * whole input planes, x band by x band.
 */
#define DEFINE_XFER_PLANES(TN, TT, VT, MT, NL)                             \
    static void xfer_##TN##_planes(const xfer_axis *tx, ptrdiff_t plane,   \
                                   const TT *x, TT *y, int add)            \
    {                                                                      \
        for (int i = 0; i < tx->n_out; ++i) {                              \
            const TT *src[XFER_MAX_BANDS];                                 \
            float wa[XFER_MAX_BANDS];                                      \
            int na = 0;                                                    \
            for (int a = 0; a < tx->nband; ++a) {                          \
                wa[na] = tx->weight[(ptrdiff_t)a * tx->n_out + i];         \
                if (wa[na] != 0)                                           \
                    src[na++] = x + (ptrdiff_t)xfer_input(tx, i, a) * plane; \
            }                                                              \
            TT *yp = y + (ptrdiff_t)i * plane;                             \
            for (ptrdiff_t k = 0; k < plane; k += NL) {                    \
                const int n = plane - k < NL ? (int)(plane - k) : NL;      \
                const MT live = XLANES_##TN(n);                            \
                VT s = XZERO_##TN;                                         \
                for (int a = 0; a < na; ++a)                               \
                    s = XADD_##TN(s, XMUL_##TN(XSET1_##TN(wa[a]),          \
                                               XLOADL_##TN(src[a] + k, live))); \
                xstore_##TN(yp + k, s, live, add);                         \
            }                                                              \
        }                                                                  \
    }

#define XADD_f _mm256_add_ps
#define XADD_d _mm256_add_pd
#define XMUL_f _mm256_mul_ps
#define XMUL_d _mm256_mul_pd
#define XSET1_f _mm256_set1_ps
#define XSET1_d(w) _mm256_set1_pd((double)(w))
#define XLOADL_f(p, live) _mm256_maskload_ps(p, live)
#define XLOADL_d(p, live) _mm256_maskload_pd(p, _mm256_cvtepi32_epi64(live))

#define DEFINE_XFER_TYPE(TN, TT, VT, MT, IT, NL)                           \
    DEFINE_XFER_SIMD(TN, TT, VT, MT, IT, NL, RUN)                          \
    DEFINE_XFER_SIMD(TN, TT, VT, MT, IT, NL, DUP)                          \
    DEFINE_XFER_SIMD(TN, TT, VT, MT, IT, NL, EVEN)                         \
    DEFINE_XFER_SIMD(TN, TT, VT, MT, IT, NL, GATHER)                       \
    DEFINE_XFER_PLANES(TN, TT, VT, MT, NL)                                 \
    void xfer_##TN(const xfer_axis *ax, const void *x_, void *y_, int add) \
    {                                                                      \
        const TT *x = (const TT *)x_;                                      \
        TT *y = (TT *)y_;                                                  \
        const xfer_axis *ty = ax + 1, *tz = ax + 2;                        \
        if (ty->identity && tz->identity && ax->nband <= XFER_MAX_BANDS)   \
            xfer_##TN##_planes(ax, (ptrdiff_t)ty->n_in * tz->n_in, x, y, add); \
        else if (tz->mul == 1 && tz->shift == 0)                           \
            xfer_##TN##_RUN(ax, x, y, add);                                \
        else if (tz->mul == 1 && tz->shift == 1)                           \
            xfer_##TN##_DUP(ax, x, y, add);                                \
        else if (tz->mul == 2 && tz->shift == 0)                           \
            xfer_##TN##_EVEN(ax, x, y, add);                               \
        else                                                               \
            xfer_##TN##_GATHER(ax, x, y, add);                             \
    }

DEFINE_XFER_TYPE(f, float, __m256, __m256i, __m256i, 8)
DEFINE_XFER_TYPE(d, double, __m256d, __m128i, __m128i, 4)
#endif

/* 1 when built with the fused AVX2/F16C paths, 0 for the portable build. */
int repro_simd(void)
{
    return REPRO_SIMD;
}
