/* The compiled kernel core of the ``native`` backend.
 *
 * Implements the library's three hot kernels directly against the buffer
 * protocol of the columnar arena (repro.core.arena): batch block sampling
 * with the reference per-position draw law ``int(rng.random() * rate)``,
 * and one merge network over sorted weighted runs (branch-free pairwise
 * merges, whatever the run count) whose last level is either the
 * Collapse keep walk (the gcd-replication-equivalent selection of
 * Section 3.2) or the cumulative-weight pass of the merged view that
 * ``query_many``'s rank walk searches.
 *
 * Contracts (mirrored by repro.kernels.native_backend, property-tested
 * against the pure-python reference backend):
 *
 *   - All float payloads are IEEE-754 binary64.  Inputs arrive either as
 *     C-contiguous float64 buffers (array('d'), 'd'-format memoryviews —
 *     including shared-memory arena views — float64 ndarrays) or as
 *     generic python sequences; buffers are consumed zero-copy, sequences
 *     pay one conversion at the entry point and never again.
 *   - Results leave as ``bytes`` payloads of packed float64 / int64 that
 *     the python shim wraps in memoryviews, so no per-element PyFloat is
 *     created on the way out (the RPL503 native-boundary rule).
 *   - Sorting is a stable LSD radix sort on sign-flipped bit patterns:
 *     a valid (deterministic) sort order for every NaN-free input, with
 *     -0.0 ordered before 0.0.  NaNs are rejected upstream by the batch
 *     gate (``contains_nan`` below).
 *   - The within-block sampling draw calls the *caller's* RNG once per
 *     block (``rng.random`` is passed in as a callable), reproducing the
 *     python backend's sequence bit-for-bit when the RNG is shared.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <limits.h>
#include <stdint.h>
#include <string.h>

/* ------------------------------------------------------------------ */
/* Small helpers                                                       */
/* ------------------------------------------------------------------ */

/* A borrowed view of a float64 payload: either a zero-copy buffer or a
 * converted heap copy of a generic sequence. */
typedef struct {
    const double *data;
    Py_ssize_t len;
    Py_buffer view;     /* valid iff owns_view */
    double *heap;       /* valid iff owns_heap */
    int owns_view;
    int owns_heap;
} f64view;

static void
f64view_release(f64view *v)
{
    if (v->owns_view) {
        PyBuffer_Release(&v->view);
        v->owns_view = 0;
    }
    if (v->owns_heap) {
        PyMem_Free(v->heap);
        v->owns_heap = 0;
    }
    v->data = NULL;
    v->len = 0;
}

/* True for a buffer holding packed float64s: a 'd'-typed view, or a raw
 * byte buffer (bytes/bytearray, itemsize 1) whose length is a multiple
 * of 8 — the form the kernels themselves return. */
static int
buffer_is_f64(const Py_buffer *view)
{
    if (view->itemsize == 1 || view->format == NULL)
        return view->len % (Py_ssize_t)sizeof(double) == 0;
    if (view->itemsize != (Py_ssize_t)sizeof(double))
        return 0;
    /* Accept 'd' with optional byte-order prefix ('=d', '<d' on LE). */
    const char *f = view->format;
    if (f[0] == '=' || f[0] == '<')
        f++;
    return f[0] == 'd' && f[1] == '\0';
}

/* Same idea for packed int64 cumulative weights: any 8-byte integer
 * format ('q', 'Q', 'l'/'L' on LP64, 'n') or a raw byte buffer. */
static int
buffer_is_i64(const Py_buffer *view)
{
    if (view->itemsize == 1 || view->format == NULL)
        return view->len % (Py_ssize_t)sizeof(int64_t) == 0;
    return view->itemsize == (Py_ssize_t)sizeof(int64_t);
}

/* Convert one python object to a double, accepting exactly what
 * ``float(x)`` accepts for real-typed values. */
static int
obj_as_double(PyObject *item, double *out)
{
    if (PyFloat_CheckExact(item)) {
        *out = PyFloat_AS_DOUBLE(item);
        return 0;
    }
    double d = PyFloat_AsDouble(item);
    if (d == -1.0 && PyErr_Occurred())
        return -1;
    *out = d;
    return 0;
}

/* Acquire ``obj`` as a float64 view: zero-copy when it exports a
 * C-contiguous float64 buffer, a converted copy otherwise. */
static int
f64view_acquire(PyObject *obj, f64view *v)
{
    memset(v, 0, sizeof(*v));
    if (PyObject_CheckBuffer(obj)) {
        if (PyObject_GetBuffer(obj, &v->view, PyBUF_CONTIG_RO | PyBUF_FORMAT) == 0) {
            if (buffer_is_f64(&v->view)) {
                v->data = (const double *)v->view.buf;
                v->len = v->view.len / (Py_ssize_t)sizeof(double);
                v->owns_view = 1;
                return 0;
            }
            PyBuffer_Release(&v->view);
        }
        else {
            PyErr_Clear();
        }
    }
    PyObject *fast = PySequence_Fast(obj, "expected a sequence of numbers");
    if (fast == NULL)
        return -1;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    double *heap = PyMem_Malloc((size_t)(n > 0 ? n : 1) * sizeof(double));
    if (heap == NULL) {
        Py_DECREF(fast);
        PyErr_NoMemory();
        return -1;
    }
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
        if (obj_as_double(items[i], &heap[i]) < 0) {
            PyMem_Free(heap);
            Py_DECREF(fast);
            return -1;
        }
    }
    Py_DECREF(fast);
    v->heap = heap;
    v->data = heap;
    v->len = n;
    v->owns_heap = 1;
    return 0;
}

/* ------------------------------------------------------------------ */
/* Float64 sort: presorted check + fused-histogram LSD radix            */
/* ------------------------------------------------------------------ */

/* Compile the hottest loops once per x86-64 microarchitecture level and
 * dispatch at load time via the glibc ifunc mechanism: the binary stays
 * portable while the key/histogram and scatter loops get vectorised on
 * AVX2/AVX-512 hosts (roughly 2x on the counting pass). */
#if defined(__GNUC__) && !defined(__clang__) && defined(__x86_64__) \
    && __GNUC__ >= 12
#define REPRO_HOT \
    __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", \
                                 "default")))
#else
#define REPRO_HOT
#endif

static void
insertion_sort_doubles(double *a, Py_ssize_t n)
{
    for (Py_ssize_t i = 1; i < n; i++) {
        double x = a[i];
        Py_ssize_t j = i;
        while (j > 0 && a[j - 1] > x) {
            a[j] = a[j - 1];
            j--;
        }
        a[j] = x;
    }
}

/* Order-preserving float64 -> uint64 key transform: flip the sign bit
 * for positives, all bits for negatives, so unsigned key order equals
 * IEEE-754 total order (with -0.0 before 0.0 — the two compare equal,
 * so the distinction is unobservable to callers). */
static inline uint64_t
double_key(double d)
{
    uint64_t u;
    memcpy(&u, &d, sizeof u);
    return u ^ ((uint64_t)((int64_t)u >> 63) | UINT64_C(0x8000000000000000));
}

static inline double
key_double(uint64_t k)
{
    k ^= (k >> 63) ? UINT64_C(0x8000000000000000) : UINT64_C(0xFFFFFFFFFFFFFFFF);
    double d;
    memcpy(&d, &k, sizeof d);
    return d;
}

/* Grow-only scratch for the radix passes (two uint64 lanes).  The GIL
 * serialises every caller, so a single process-wide arena is safe; it
 * tracks the high-water buffer size and is reused across calls. */
static uint64_t *sort_scratch = NULL;
static Py_ssize_t sort_scratch_cap = 0;

static uint64_t *
sort_scratch_get(Py_ssize_t n)
{
    if (n <= sort_scratch_cap)
        return sort_scratch;
    Py_ssize_t cap = sort_scratch_cap > 0 ? sort_scratch_cap : 1024;
    while (cap < n)
        cap *= 2;
    uint64_t *fresh = PyMem_Realloc(sort_scratch,
                                    (size_t)cap * 2 * sizeof(uint64_t));
    if (fresh == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    sort_scratch = fresh;
    sort_scratch_cap = cap;
    return sort_scratch;
}

/* Sort ``src[0:n]`` ascending into ``dst`` (aliasing allowed; NaN-free
 * input).  Stable LSD radix on sign-flipped bit patterns — a single
 * fused pass builds the keys and all eight digit histograms, then only
 * the digit positions that actually vary (OR/AND byte mask) pay a
 * scatter pass.  The up-front presorted check makes re-writing Collapse
 * output (always sorted) a plain copy. */
REPRO_HOT static int
sort_doubles_into(const double *src, double *dst, Py_ssize_t n)
{
    Py_ssize_t sorted_prefix = 1;
    while (sorted_prefix < n && src[sorted_prefix - 1] <= src[sorted_prefix])
        sorted_prefix++;
    if (sorted_prefix >= n) {
        if (dst != src && n > 0)
            memmove(dst, src, (size_t)n * sizeof(double));
        return 0;
    }
    if (n < 48) {
        if (dst != src)
            memmove(dst, src, (size_t)n * sizeof(double));
        insertion_sort_doubles(dst, n);
        return 0;
    }
    uint64_t *ka = sort_scratch_get(n);
    if (ka == NULL)
        return -1;
    uint64_t *kb = ka + sort_scratch_cap;
    uint64_t counts[8][256];
    memset(counts, 0, sizeof counts);
    uint64_t or_mask = 0, and_mask = ~UINT64_C(0);
    for (Py_ssize_t i = 0; i < n; i++) {
        uint64_t k = double_key(src[i]);
        ka[i] = k;
        or_mask |= k;
        and_mask &= k;
        counts[0][k & 255]++;
        counts[1][(k >> 8) & 255]++;
        counts[2][(k >> 16) & 255]++;
        counts[3][(k >> 24) & 255]++;
        counts[4][(k >> 32) & 255]++;
        counts[5][(k >> 40) & 255]++;
        counts[6][(k >> 48) & 255]++;
        counts[7][(k >> 56) & 255]++;
    }
    uint64_t varying = or_mask ^ and_mask;
    uint64_t *from = ka, *to = kb;
    for (int b = 0; b < 8; b++) {
        if (((varying >> (8 * b)) & 255) == 0)
            continue;       /* constant digit: already in order */
        uint64_t pos[256], run = 0;
        for (int v = 0; v < 256; v++) {
            pos[v] = run;
            run += counts[b][v];
        }
        int shift = 8 * b;
        for (Py_ssize_t i = 0; i < n; i++) {
            uint64_t k = from[i];
            to[pos[(k >> shift) & 255]++] = k;
        }
        uint64_t *swap = from;
        from = to;
        to = swap;
    }
    for (Py_ssize_t i = 0; i < n; i++)
        dst[i] = key_double(from[i]);
    return 0;
}

static int
sort_doubles(double *a, Py_ssize_t n)
{
    return sort_doubles_into(a, a, n);
}

/* ------------------------------------------------------------------ */
/* pack_doubles / sorted_doubles / contains_nan                        */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(pack_doubles_doc,
"pack_doubles(values, /) -> bytes\n\n"
"Little-endian-native float64 packing of a batch: the native backend's\n"
"entry-point conversion.  Lists/tuples of floats take the unboxing fast\n"
"path; float64 buffers are copied bytewise; other sequences convert per\n"
"element (once, at the door).");

static PyObject *
native_pack_doubles(PyObject *self, PyObject *obj)
{
    (void)self;
    /* Buffer fast path: one memcpy. */
    if (PyObject_CheckBuffer(obj)) {
        Py_buffer view;
        if (PyObject_GetBuffer(obj, &view, PyBUF_CONTIG_RO | PyBUF_FORMAT) == 0) {
            if (buffer_is_f64(&view)) {
                PyObject *out = PyBytes_FromStringAndSize(view.buf, view.len);
                PyBuffer_Release(&view);
                return out;
            }
            PyBuffer_Release(&view);
        }
        else {
            PyErr_Clear();
        }
    }
    PyObject *fast = PySequence_Fast(obj, "expected a sequence of numbers");
    if (fast == NULL)
        return NULL;
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject *out = PyBytes_FromStringAndSize(NULL, n * (Py_ssize_t)sizeof(double));
    if (out == NULL) {
        Py_DECREF(fast);
        return NULL;
    }
    double *dst = (double *)PyBytes_AS_STRING(out);
    PyObject **items = PySequence_Fast_ITEMS(fast);
    for (Py_ssize_t i = 0; i < n; i++) {
#if defined(__GNUC__)
        /* The loads chase list-item pointers to boxed floats scattered
         * on the heap; telling the prefetcher a few objects ahead hides
         * most of that latency. */
        if (i + 8 < n)
            __builtin_prefetch(items[i + 8], 0, 1);
#endif
        if (obj_as_double(items[i], &dst[i]) < 0) {
            Py_DECREF(out);
            Py_DECREF(fast);
            return NULL;
        }
    }
    Py_DECREF(fast);
    return out;
}

PyDoc_STRVAR(sorted_doubles_doc,
"sorted_doubles(values, /) -> bytes\n\n"
"Packed float64 copy of ``values``, sorted ascending (stable radix).");

static PyObject *
native_sorted_doubles(PyObject *self, PyObject *obj)
{
    PyObject *out = native_pack_doubles(self, obj);
    if (out == NULL)
        return NULL;
    double *data = (double *)PyBytes_AS_STRING(out);
    Py_ssize_t n = PyBytes_GET_SIZE(out) / (Py_ssize_t)sizeof(double);
    if (sort_doubles(data, n) < 0) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

PyDoc_STRVAR(contains_nan_doc,
"contains_nan(buffer, /) -> bool\n\n"
"Single C scan of a float64 buffer for NaN (the atomic batch gate).");

static PyObject *
native_contains_nan(PyObject *self, PyObject *obj)
{
    (void)self;
    Py_buffer view;
    if (PyObject_GetBuffer(obj, &view, PyBUF_CONTIG_RO | PyBUF_FORMAT) < 0)
        return NULL;
    if (!buffer_is_f64(&view)) {
        PyBuffer_Release(&view);
        PyErr_SetString(PyExc_TypeError, "contains_nan needs a float64 buffer");
        return NULL;
    }
    const double *data = (const double *)view.buf;
    Py_ssize_t n = view.len / (Py_ssize_t)sizeof(double);
    int found = 0;
    for (Py_ssize_t i = 0; i < n; i++) {
        if (data[i] != data[i]) {
            found = 1;
            break;
        }
    }
    PyBuffer_Release(&view);
    return PyBool_FromLong(found);
}

/* ------------------------------------------------------------------ */
/* Kernel 1: batch block sampling                                      */
/* ------------------------------------------------------------------ */

/* ------------------------------------------------------------------ */
/* Direct Mersenne Twister draws (validated fast path)                 */
/* ------------------------------------------------------------------ */

/* ``block_reps`` receives the caller RNG's bound ``random`` method and
 * the contract is one call per block — at ~40ns per PyObject call that
 * dominates the sampling kernel.  When the draw is the *unmodified* C
 * method of CPython's ``_random.Random`` we can instead run MT19937
 * directly on the generator's own state words, producing the exact same
 * double sequence (genrand_res53) and leaving the object's cursor where
 * the interpreter would have left it, at ~3ns per draw.
 *
 * The struct layout below is private CPython ABI, so it is *verified
 * empirically at import*: mt_probe() compares a fresh generator's
 * getstate() against the assumed offsets and a C-computed draw against
 * its .random().  Any mismatch (layout change, PyPy, overridden method)
 * leaves mt_probe_type NULL and the kernel falls back to calling the
 * bound method — bit-identical either way, just slower. */

#define MT_N 624
#define MT_M 397

typedef struct {
    PyObject_HEAD
    int index;
    uint32_t state[MT_N];
} mt_object;

static PyTypeObject *mt_probe_type = NULL;
static PyCFunction mt_probe_meth = NULL;

static void
mt_regen(mt_object *mt)
{
    uint32_t *m = mt->state;
    uint32_t y;
    int kk;
    for (kk = 0; kk < MT_N - MT_M; kk++) {
        y = (m[kk] & UINT32_C(0x80000000)) | (m[kk + 1] & UINT32_C(0x7fffffff));
        m[kk] = m[kk + MT_M] ^ (y >> 1) ^ ((y & 1) ? UINT32_C(0x9908b0df) : 0);
    }
    for (; kk < MT_N - 1; kk++) {
        y = (m[kk] & UINT32_C(0x80000000)) | (m[kk + 1] & UINT32_C(0x7fffffff));
        m[kk] = m[kk + (MT_M - MT_N)] ^ (y >> 1)
                ^ ((y & 1) ? UINT32_C(0x9908b0df) : 0);
    }
    y = (m[MT_N - 1] & UINT32_C(0x80000000)) | (m[0] & UINT32_C(0x7fffffff));
    m[MT_N - 1] = m[MT_M - 1] ^ (y >> 1) ^ ((y & 1) ? UINT32_C(0x9908b0df) : 0);
    mt->index = 0;
}

static inline uint32_t
mt_next32(mt_object *mt)
{
    if (mt->index >= MT_N)
        mt_regen(mt);
    uint32_t y = mt->state[mt->index++];
    y ^= y >> 11;
    y ^= (y << 7) & UINT32_C(0x9d2c5680);
    y ^= (y << 15) & UINT32_C(0xefc60000);
    y ^= y >> 18;
    return y;
}

/* CPython's random_random: 53-bit resolution from two 32-bit draws. */
static inline double
mt_next53(mt_object *mt)
{
    uint32_t a = mt_next32(mt) >> 5;
    uint32_t b = mt_next32(mt) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static void
mt_probe(void)
{
    PyObject *mod = NULL, *cls = NULL, *inst = NULL, *state = NULL;
    PyObject *meth = NULL, *rnd = NULL;
    mt_object probe;
    mod = PyImport_ImportModule("_random");
    if (mod == NULL)
        goto done;
    cls = PyObject_GetAttrString(mod, "Random");
    if (cls == NULL || !PyType_Check(cls))
        goto done;
    inst = PyObject_CallFunction(cls, "i", 123456789);
    if (inst == NULL)
        goto done;
    if (Py_TYPE(inst)->tp_basicsize < (Py_ssize_t)sizeof(mt_object))
        goto done;
    state = PyObject_CallMethod(inst, "getstate", NULL);
    if (state == NULL || !PyTuple_Check(state)
        || PyTuple_GET_SIZE(state) != MT_N + 1)
        goto done;
    mt_object *live = (mt_object *)inst;
    for (int i = 0; i < MT_N; i++) {
        unsigned long w = PyLong_AsUnsignedLong(PyTuple_GET_ITEM(state, i));
        if (PyErr_Occurred())
            goto done;
        if ((uint32_t)w != live->state[i])
            goto done;
        probe.state[i] = (uint32_t)w;
    }
    long idx = PyLong_AsLong(PyTuple_GET_ITEM(state, MT_N));
    if (PyErr_Occurred() || idx != live->index)
        goto done;
    probe.index = (int)idx;
    meth = PyObject_GetAttrString(inst, "random");
    if (meth == NULL || !PyCFunction_Check(meth))
        goto done;
    /* One draw from the C replica must match the interpreter's own and
     * leave the live cursor where the replica's is. */
    double mine = mt_next53(&probe);
    rnd = PyObject_CallNoArgs(meth);
    if (rnd == NULL)
        goto done;
    double theirs = PyFloat_AsDouble(rnd);
    if (PyErr_Occurred() || mine != theirs || live->index != probe.index)
        goto done;
    mt_probe_type = Py_TYPE(inst);
    Py_INCREF(mt_probe_type);
    mt_probe_meth = PyCFunction_GET_FUNCTION(meth);
done:
    PyErr_Clear();
    Py_XDECREF(rnd);
    Py_XDECREF(meth);
    Py_XDECREF(state);
    Py_XDECREF(inst);
    Py_XDECREF(cls);
    Py_XDECREF(mod);
}

/* The generator behind ``draw`` iff the validated fast path applies:
 * draw is the probed C method (so not overridden) bound to an instance
 * whose type extends the probed layout. */
static mt_object *
mt_fastpath(PyObject *draw)
{
    if (mt_probe_type == NULL || !PyCFunction_Check(draw))
        return NULL;
    if (PyCFunction_GET_FUNCTION(draw) != mt_probe_meth)
        return NULL;
    PyObject *owner = PyCFunction_GET_SELF(draw);
    if (owner == NULL || !PyObject_TypeCheck(owner, mt_probe_type))
        return NULL;
    return (mt_object *)owner;
}

PyDoc_STRVAR(block_reps_doc,
"block_reps(values, start, n_blocks, rate, draw, /) -> bytes\n\n"
"One uniform representative per complete block of ``rate`` elements of\n"
"``values[start:start + n_blocks * rate]``, packed as float64 bytes.\n"
"``draw`` is the caller RNG's bound ``random`` method; the within-block\n"
"index is ``int(draw() * rate)`` — the reference backend's exact law, so\n"
"a shared RNG yields bit-identical picks.");

static PyObject *
native_block_reps(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *values_obj, *draw;
    Py_ssize_t start, n_blocks, rate;
    if (!PyArg_ParseTuple(args, "OnnnO:block_reps",
                          &values_obj, &start, &n_blocks, &rate, &draw))
        return NULL;
    if (rate < 1) {
        PyErr_Format(PyExc_ValueError, "rate must be >= 1, got %zd", rate);
        return NULL;
    }
    if (n_blocks < 0 || start < 0) {
        PyErr_SetString(PyExc_ValueError, "start and n_blocks must be >= 0");
        return NULL;
    }
    f64view v;
    if (f64view_acquire(values_obj, &v) < 0)
        return NULL;
    if (start + n_blocks * rate > v.len) {
        f64view_release(&v);
        PyErr_Format(PyExc_IndexError,
                     "blocks [%zd, %zd) exceed input of %zd elements",
                     start, start + n_blocks * rate, v.len);
        return NULL;
    }
    PyObject *out = PyBytes_FromStringAndSize(
        NULL, n_blocks * (Py_ssize_t)sizeof(double));
    if (out == NULL) {
        f64view_release(&v);
        return NULL;
    }
    double *dst = (double *)PyBytes_AS_STRING(out);
    mt_object *mt = mt_fastpath(draw);
    if (mt != NULL) {
        /* Same generator, same sequence, no interpreter round-trip:
         * genrand_res53 always lands in [0, 1), so the offset is in
         * range by construction. */
        const double *base = v.data + start;
        for (Py_ssize_t i = 0; i < n_blocks; i++) {
            Py_ssize_t offset = (Py_ssize_t)(mt_next53(mt) * (double)rate);
            dst[i] = base[i * rate + offset];
        }
        f64view_release(&v);
        return out;
    }
    for (Py_ssize_t i = 0; i < n_blocks; i++) {
        PyObject *r = PyObject_CallNoArgs(draw);
        if (r == NULL)
            goto fail;
        double u = PyFloat_AsDouble(r);
        Py_DECREF(r);
        if (u == -1.0 && PyErr_Occurred())
            goto fail;
        Py_ssize_t offset = (Py_ssize_t)(u * (double)rate);
        if (offset < 0 || offset >= rate) {
            /* The draw law guarantees [0, rate) for u in [0, 1); anything
             * else means a misbehaving RNG — refuse rather than read OOB. */
            PyErr_Format(PyExc_ValueError,
                         "rng draw %f produced offset %zd outside block of %zd",
                         u, offset, rate);
            goto fail;
        }
        dst[i] = v.data[start + i * rate + offset];
    }
    f64view_release(&v);
    return out;
fail:
    Py_DECREF(out);
    f64view_release(&v);
    return NULL;
}

/* ------------------------------------------------------------------ */
/* Arena slot writes                                                   */
/* ------------------------------------------------------------------ */

PyDoc_STRVAR(write_slot_doc,
"write_slot(storage, offset, values, sort, /) -> None\n\n"
"Copy ``values`` into float64 ``storage[offset:offset+len(values)]``\n"
"(element offsets), sorting the written range in place when ``sort``.\n"
"The storage is the arena's backing store — array('d') on the heap, a\n"
"'d' memoryview over a shared-memory segment — written through the\n"
"buffer protocol without creating any per-element object.");

static PyObject *
native_write_slot(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *storage, *values_obj;
    Py_ssize_t offset;
    int sort;
    if (!PyArg_ParseTuple(args, "OnOp:write_slot",
                          &storage, &offset, &values_obj, &sort))
        return NULL;
    Py_buffer dst;
    if (PyObject_GetBuffer(storage, &dst, PyBUF_CONTIG | PyBUF_FORMAT | PyBUF_WRITABLE) < 0)
        return NULL;
    if (!buffer_is_f64(&dst)) {
        PyBuffer_Release(&dst);
        PyErr_SetString(PyExc_TypeError, "write_slot needs float64 storage");
        return NULL;
    }
    Py_ssize_t capacity = dst.len / (Py_ssize_t)sizeof(double);
    f64view src;
    if (f64view_acquire(values_obj, &src) < 0) {
        PyBuffer_Release(&dst);
        return NULL;
    }
    if (offset < 0 || offset + src.len > capacity) {
        PyErr_Format(PyExc_ValueError,
                     "write of %zd elements at offset %zd exceeds storage of %zd",
                     src.len, offset, capacity);
        f64view_release(&src);
        PyBuffer_Release(&dst);
        return NULL;
    }
    double *target = (double *)dst.buf + offset;
    int failed = 0;
    if (sort) {
        /* Sort straight from the source into the slot: the key pass
         * reads all of src before anything is written, so this is safe
         * even when source and slot alias. */
        failed = sort_doubles_into(src.data, target, src.len) < 0;
    }
    else {
        memmove(target, src.data, (size_t)src.len * sizeof(double));
    }
    f64view_release(&src);
    PyBuffer_Release(&dst);
    if (failed)
        return NULL;
    Py_RETURN_NONE;
}

/* ------------------------------------------------------------------ */
/* Kernel 2 + 3 shared core: a merge network over sorted weighted runs */
/* ------------------------------------------------------------------ */

/* The reference backend merges by a stable sort of (value, weight)
 * tuples over the inputs in order, so equal values break ties by
 * weight, then by input position.  The network reproduces that law by
 * construction: it orders the runs by (weight, input position) once,
 * then merges adjacent groups pairwise with a stable two-way merge in
 * which the left group wins ties.  Each group's elements therefore stay
 * in (value, run rank) order at every level, and the last level emits
 * exactly the reference sequence, cumulative weights included. */

/* A sorted run of the network: values plus a weight per element, or
 * one weight shared by the whole run (an input buffer). */
typedef struct {
    const double *v;
    const int64_t *w;
    Py_ssize_t wmask;       /* -1: element i weighs w[i]; 0: all weigh w[0] */
    Py_ssize_t len;
} wrun;

/* Where a two-way merge sends its elements.  An inner level stores
 * (value, weight) pairs, merge_weighted's last level (value, cumulative
 * weight), and select_collapse's last level keeps the values at which
 * the cumulative weight first reaches position, position + stride, ...
 * Each element is written at slot ``o``, which moves on only when the
 * element is kept (outside the keep walk: always); output stops once
 * ``cap`` elements are out. */
enum { SINK_PAIRS, SINK_CUMULATIVE, SINK_KEEP };

typedef struct {
    double *v;
    int64_t *w;             /* unused by SINK_KEEP */
    Py_ssize_t o, cap;
    int64_t cum, position, stride;
} wsink;

#if defined(__GNUC__)
#define REPRO_INLINE static inline __attribute__((always_inline))
#else
#define REPRO_INLINE static inline
#endif

REPRO_INLINE void
sink_put(wsink *s, const int mode, double v, int64_t w)
{
    s->v[s->o] = v;
    if (mode == SINK_PAIRS) {
        s->w[s->o++] = w;
        return;
    }
    s->cum += w;
    if (mode == SINK_CUMULATIVE) {
        s->w[s->o++] = s->cum;
        return;
    }
    /* Each element keeps at most once: when it does, the position
     * overshoots it, since every run weight is at most the stride. */
    Py_ssize_t keep = s->position <= s->cum;
    s->position += s->stride & -(int64_t)keep;
    s->o += keep;
}

/* Stable two-way merge of ``a`` and ``b`` into ``out``; a's elements
 * win ties.  The loop has no data-dependent branch: the smaller head is
 * a min, its weight a masked select, and each cursor advances by the
 * comparison bit.  The run fields are copied to locals because the
 * int64 stores could alias them. */
REPRO_INLINE void
merge2(const wrun *a, const wrun *b, wsink *out, const int mode)
{
    const double *av = a->v, *bv = b->v;
    const int64_t *aw = a->w, *bw = b->w;
    const Py_ssize_t am = a->wmask, bm = b->wmask, na = a->len, nb = b->len;
    wsink s = *out;
    Py_ssize_t i = 0, j = 0;
    while (i < na && j < nb && s.o < s.cap) {
        double x = av[i], y = bv[j];
        int64_t wx = aw[i & am], wy = bw[j & bm];
        Py_ssize_t take_b = y < x;
        sink_put(&s, mode, y < x ? y : x,
                 wx ^ ((wx ^ wy) & -(int64_t)take_b));
        i += 1 - take_b;
        j += take_b;
    }
    for (; i < na && s.o < s.cap; i++)
        sink_put(&s, mode, av[i], aw[i & am]);
    for (; j < nb && s.o < s.cap; j++)
        sink_put(&s, mode, bv[j], bw[j & bm]);
    *out = s;
}

/* Grow-only scratch of the network: the run table plus two ping-pong
 * levels of (value, weight) pairs.  One process-wide arena, same
 * discipline as sort_scratch: the GIL serialises callers, the buffer
 * only grows, and the static pointer keeps it reachable for leak
 * checkers.  The busy flag covers re-entry (two live networks at once):
 * the inner one takes a private allocation instead. */
static void *net_scratch = NULL;
static Py_ssize_t net_scratch_cap = 0;  /* bytes */
static int net_scratch_busy = 0;

static int
net_scratch_reserve(Py_ssize_t need)
{
    if (need <= net_scratch_cap)
        return 0;
    Py_ssize_t cap = net_scratch_cap > 0 ? net_scratch_cap : 4096;
    while (cap < need)
        cap *= 2;
    void *grown = PyMem_Realloc(net_scratch, (size_t)cap);
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    net_scratch = grown;
    net_scratch_cap = cap;
    return 0;
}

/* Merge ``nruns`` sorted runs (run i's elements all weigh weights[i],
 * ``total`` elements in all) into ``sink`` through the network.  Every
 * level but the last merges adjacent pairs into the other ping-pong
 * buffer, each merged pair at its first element's global offset; an
 * odd last group is carried by reference.  A carried group may later be
 * merged into the very buffer it lives in, as the right-hand side of
 * its pair: the output then trails the group's unread elements (output
 * slot offset + i + j < offset + len(left) + j while the left side
 * lasts), so it never overwrites one. */
static int
merge_network(const f64view *runs, const int64_t *weights, Py_ssize_t nruns,
              Py_ssize_t total, wsink *sink, const int mode)
{
    Py_ssize_t pooled = nruns > 2 ? 2 * total : 0;   /* ping-pong pairs */
    Py_ssize_t need = nruns * (Py_ssize_t)sizeof(wrun)
                      + pooled * (Py_ssize_t)(sizeof(double) + sizeof(int64_t));
    char *mem;
    if (!net_scratch_busy) {
        if (net_scratch_reserve(need) < 0)
            return -1;
        net_scratch_busy = 1;
        mem = net_scratch;
    }
    else {
        mem = PyMem_Malloc((size_t)(need > 0 ? need : 1));
        if (mem == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    }
    wrun *seg = (wrun *)mem;
    double *vbuf[2] = {NULL, NULL};
    int64_t *wbuf[2] = {NULL, NULL};
    if (pooled > 0) {
        vbuf[0] = (double *)(seg + nruns);
        vbuf[1] = vbuf[0] + total;
        wbuf[0] = (int64_t *)(vbuf[1] + total);
        wbuf[1] = wbuf[0] + total;
    }
    /* The non-empty runs in (weight, input position) order: a stable
     * insertion sort by weight. */
    Py_ssize_t nseg = 0;
    for (Py_ssize_t r = 0; r < nruns; r++) {
        if (runs[r].len == 0)
            continue;
        Py_ssize_t at = nseg++;
        while (at > 0 && *seg[at - 1].w > weights[r]) {
            seg[at] = seg[at - 1];
            at--;
        }
        seg[at] = (wrun){runs[r].data, &weights[r], 0, runs[r].len};
    }
    for (int side = 0; nseg > 2; side ^= 1) {
        Py_ssize_t out = 0, offset = 0;
        for (Py_ssize_t s = 0; s + 1 < nseg; s += 2) {
            wsink pairs = {vbuf[side] + offset, wbuf[side] + offset,
                           0, PY_SSIZE_T_MAX, 0, 0, 0};
            merge2(&seg[s], &seg[s + 1], &pairs, SINK_PAIRS);
            seg[out++] = (wrun){pairs.v, pairs.w, -1, pairs.o};
            offset += pairs.o;
        }
        if (nseg % 2)
            seg[out++] = seg[nseg - 1];
        nseg = out;
    }
    if (nseg > 0) {
        wrun none = {NULL, NULL, 0, 0};
        const wrun *right = nseg > 1 ? &seg[1] : &none;
        if (mode == SINK_CUMULATIVE)
            merge2(&seg[0], right, sink, SINK_CUMULATIVE);
        else
            merge2(&seg[0], right, sink, SINK_KEEP);
    }
    if (mem == net_scratch)
        net_scratch_busy = 0;
    else
        PyMem_Free(mem);
    return 0;
}

/* Grow-only scratch for acquire_weighted's runs/weights arrays.  Every
 * collapse and merge call used to pay two PyMem_Mallocs just to hold
 * the per-run bookkeeping; under sustained serving load those arrays
 * have a stable high-water size, so one process-wide arena (GIL-
 * serialised, like sort_scratch) amortises them to zero.  The busy flag
 * covers re-entry via PySequence item hooks running python code that
 * calls back into these kernels: the nested call takes a private
 * allocation instead of aliasing the live arrays. */
static void *wt_scratch = NULL;
static Py_ssize_t wt_scratch_cap = 0;   /* capacity in pairs */
static int wt_scratch_busy = 0;

static int
wt_scratch_reserve(Py_ssize_t n)
{
    if (n <= wt_scratch_cap)
        return 0;
    Py_ssize_t cap = wt_scratch_cap > 0 ? wt_scratch_cap : 16;
    while (cap < n)
        cap *= 2;
    void *grown = PyMem_Realloc(
        wt_scratch, (size_t)cap * (sizeof(f64view) + sizeof(int64_t)));
    if (grown == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    wt_scratch = grown;
    wt_scratch_cap = cap;
    return 0;
}

static int
wt_scratch_get(Py_ssize_t n, f64view **out_runs, int64_t **out_weights,
               int *out_from_scratch)
{
    if (n < 1)
        n = 1;
    if (!wt_scratch_busy) {
        if (wt_scratch_reserve(n) < 0)
            return -1;
        wt_scratch_busy = 1;
        *out_runs = (f64view *)wt_scratch;
        /* weights live after the full runs capacity, so growth never
         * shifts them relative to an in-flight acquisition (the busy
         * flag forbids that anyway). */
        *out_weights = (int64_t *)((char *)wt_scratch
                                   + (size_t)wt_scratch_cap * sizeof(f64view));
        *out_from_scratch = 1;
        return 0;
    }
    f64view *runs = PyMem_Malloc((size_t)n * sizeof(f64view));
    int64_t *weights = PyMem_Malloc((size_t)n * sizeof(int64_t));
    if (runs == NULL || weights == NULL) {
        PyMem_Free(runs);
        PyMem_Free(weights);
        PyErr_NoMemory();
        return -1;
    }
    *out_runs = runs;
    *out_weights = weights;
    *out_from_scratch = 0;
    return 0;
}

/* Acquire ``inputs`` — a sequence of (data, weight) pairs — as runs.
 * Entries with weight <= 0 are skipped when ``skip_nonpositive``.
 * Returns 0 on success with the out_runs, out_weights, out_n, out_total,
 * out_from_scratch outputs set (caller must hand all of them to
 * release_weighted), -1 on error. */
static int
acquire_weighted(PyObject *inputs, int skip_nonpositive,
                 f64view **out_runs, int64_t **out_weights,
                 Py_ssize_t *out_n, Py_ssize_t *out_total,
                 int *out_from_scratch)
{
    PyObject *fast = PySequence_Fast(inputs, "expected a sequence of (data, weight) pairs");
    if (fast == NULL)
        return -1;
    Py_ssize_t n_pairs = PySequence_Fast_GET_SIZE(fast);
    f64view *runs;
    int64_t *weights;
    int from_scratch;
    if (wt_scratch_get(n_pairs, &runs, &weights, &from_scratch) < 0) {
        Py_DECREF(fast);
        return -1;
    }
    Py_ssize_t count = 0, total = 0;
    for (Py_ssize_t i = 0; i < n_pairs; i++) {
        PyObject *pair = PySequence_Fast_GET_ITEM(fast, i);
        PyObject *data_obj = PySequence_GetItem(pair, 0);
        PyObject *weight_obj = data_obj ? PySequence_GetItem(pair, 1) : NULL;
        if (data_obj == NULL || weight_obj == NULL) {
            Py_XDECREF(data_obj);
            Py_XDECREF(weight_obj);
            goto fail;
        }
        long long w = PyLong_AsLongLong(weight_obj);
        Py_DECREF(weight_obj);
        if (w == -1 && PyErr_Occurred()) {
            Py_DECREF(data_obj);
            goto fail;
        }
        if (skip_nonpositive && w <= 0) {
            Py_DECREF(data_obj);
            continue;
        }
        if (f64view_acquire(data_obj, &runs[count]) < 0) {
            Py_DECREF(data_obj);
            goto fail;
        }
        Py_DECREF(data_obj);
        weights[count] = (int64_t)w;
        total += runs[count].len;
        count++;
    }
    Py_DECREF(fast);
    *out_runs = runs;
    *out_weights = weights;
    *out_n = count;
    *out_total = total;
    *out_from_scratch = from_scratch;
    return 0;
fail:
    for (Py_ssize_t j = 0; j < count; j++)
        f64view_release(&runs[j]);
    if (from_scratch) {
        wt_scratch_busy = 0;
    }
    else {
        PyMem_Free(runs);
        PyMem_Free(weights);
    }
    Py_DECREF(fast);
    return -1;
}

static void
release_weighted(f64view *runs, int64_t *weights, Py_ssize_t n,
                 int from_scratch)
{
    for (Py_ssize_t i = 0; i < n; i++)
        f64view_release(&runs[i]);
    if (from_scratch) {
        wt_scratch_busy = 0;
    }
    else {
        PyMem_Free(runs);
        PyMem_Free(weights);
    }
}

/* Build (values bytes, cumweights bytes) from merged runs. */
static PyObject *
merged_payload(f64view *runs, int64_t *weights, Py_ssize_t nruns, Py_ssize_t total)
{
    PyObject *vals_out = PyBytes_FromStringAndSize(
        NULL, total * (Py_ssize_t)sizeof(double));
    PyObject *cum_out = PyBytes_FromStringAndSize(
        NULL, total * (Py_ssize_t)sizeof(int64_t));
    if (vals_out == NULL || cum_out == NULL) {
        Py_XDECREF(vals_out);
        Py_XDECREF(cum_out);
        return NULL;
    }
    wsink sink = {(double *)PyBytes_AS_STRING(vals_out),
                  (int64_t *)PyBytes_AS_STRING(cum_out), 0, total, 0, 0, 0};
    if (merge_network(runs, weights, nruns, total, &sink, SINK_CUMULATIVE) < 0) {
        Py_DECREF(vals_out);
        Py_DECREF(cum_out);
        return NULL;
    }
    return Py_BuildValue("(NN)", vals_out, cum_out);
}

PyDoc_STRVAR(merge_weighted_doc,
"merge_weighted(inputs, /) -> (values: bytes, cumweights: bytes)\n\n"
"Flatten sorted weighted runs into the merged (float64 values, int64\n"
"cumulative weights) columnar payload behind MergedView.  Runs with\n"
"weight <= 0 are skipped, mirroring the reference backend.");

static PyObject *
native_merge_weighted(PyObject *self, PyObject *inputs)
{
    (void)self;
    f64view *runs;
    int64_t *weights;
    Py_ssize_t nruns, total;
    int scratch;
    if (acquire_weighted(inputs, 1, &runs, &weights, &nruns, &total, &scratch) < 0)
        return NULL;
    PyObject *result = merged_payload(runs, weights, nruns, total);
    release_weighted(runs, weights, nruns, scratch);
    return result;
}

PyDoc_STRVAR(select_collapse_doc,
"select_collapse(inputs, capacity, offset, /) -> bytes\n\n"
"The Collapse keep-selection (Section 3.2): merge the sorted weighted\n"
"runs and keep the values at cumulative-weight positions\n"
"``offset + j * stride`` for j in [0, capacity), packed as float64\n"
"bytes.  Equivalent to gcd-replication + sort + strided select without\n"
"materialising any replica.");

static PyObject *
native_select_collapse(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *inputs;
    Py_ssize_t capacity, offset;
    if (!PyArg_ParseTuple(args, "Onn:select_collapse", &inputs, &capacity, &offset))
        return NULL;
    f64view *runs;
    int64_t *weights;
    Py_ssize_t nruns, total_len;
    int scratch;
    if (acquire_weighted(inputs, 0, &runs, &weights, &nruns, &total_len,
                         &scratch) < 0)
        return NULL;
    int64_t stride = 0, total_weight = 0;
    for (Py_ssize_t i = 0; i < nruns; i++) {
        stride += weights[i];
        total_weight += weights[i] * (int64_t)runs[i].len;
    }
    if (offset < 1 || (int64_t)offset > stride) {
        PyErr_Format(PyExc_ValueError,
                     "offset %zd outside stride [1, %lld]",
                     offset, (long long)stride);
        release_weighted(runs, weights, nruns, scratch);
        return NULL;
    }
    if ((int64_t)offset + (int64_t)(capacity - 1) * stride > total_weight) {
        PyErr_Format(PyExc_AssertionError,
                     "collapse inputs cover weight %lld, need %lld "
                     "(stride %lld, offset %zd)",
                     (long long)total_weight,
                     (long long)((int64_t)offset + (int64_t)(capacity - 1) * stride),
                     (long long)stride, offset);
        release_weighted(runs, weights, nruns, scratch);
        return NULL;
    }
    PyObject *out = PyBytes_FromStringAndSize(
        NULL, capacity * (Py_ssize_t)sizeof(double));
    if (out == NULL) {
        release_weighted(runs, weights, nruns, scratch);
        return NULL;
    }
    /* The network's last level is the keep walk: values are kept as the
     * cumulative weight crosses offset + j * stride, and no merged
     * sequence is ever materialised. */
    wsink sink = {(double *)PyBytes_AS_STRING(out), NULL, 0, capacity, 0,
                  (int64_t)offset, stride};
    int failed = merge_network(runs, weights, nruns, total_len, &sink,
                               SINK_KEEP) < 0;
    release_weighted(runs, weights, nruns, scratch);
    if (!failed && sink.o < capacity) {
        /* Unreachable after the coverage check above; refuse rather than
         * return unwritten slots if it is ever violated. */
        PyErr_Format(PyExc_AssertionError,
                     "collapse selected past the merged input "
                     "(total weight %lld, stride %lld, offset %zd)",
                     (long long)total_weight, (long long)stride, offset);
        failed = 1;
    }
    if (failed) {
        Py_DECREF(out);
        return NULL;
    }
    return out;
}

/* ------------------------------------------------------------------ */
/* Kernel 3: merged-view union + rank walk                             */
/* ------------------------------------------------------------------ */

typedef struct {
    Py_buffer vals;
    Py_buffer cum;
    const double *v;
    const int64_t *c;
    Py_ssize_t len;
    int held;
} viewpair;

static int
viewpair_acquire(PyObject *vals_obj, PyObject *cum_obj, viewpair *p)
{
    memset(p, 0, sizeof(*p));
    if (PyObject_GetBuffer(vals_obj, &p->vals, PyBUF_CONTIG_RO | PyBUF_FORMAT) < 0)
        return -1;
    if (PyObject_GetBuffer(cum_obj, &p->cum, PyBUF_CONTIG_RO | PyBUF_FORMAT) < 0) {
        PyBuffer_Release(&p->vals);
        return -1;
    }
    p->held = 1;
    if (!buffer_is_f64(&p->vals) || !buffer_is_i64(&p->cum)) {
        PyBuffer_Release(&p->vals);
        PyBuffer_Release(&p->cum);
        p->held = 0;
        PyErr_SetString(PyExc_TypeError,
                        "merged view needs float64 values and int64 cumweights");
        return -1;
    }
    p->v = (const double *)p->vals.buf;
    p->c = (const int64_t *)p->cum.buf;
    p->len = p->vals.len / (Py_ssize_t)sizeof(double);
    if (p->len != p->cum.len / (Py_ssize_t)sizeof(int64_t)) {
        PyBuffer_Release(&p->vals);
        PyBuffer_Release(&p->cum);
        p->held = 0;
        PyErr_SetString(PyExc_ValueError, "values/cumweights length mismatch");
        return -1;
    }
    return 0;
}

static void
viewpair_release(viewpair *p)
{
    if (p->held) {
        PyBuffer_Release(&p->vals);
        PyBuffer_Release(&p->cum);
        p->held = 0;
    }
}

PyDoc_STRVAR(merge_views_doc,
"merge_views(a_values, a_cum, b_values, b_cum, /) -> (bytes, bytes)\n\n"
"Union of two flattened weighted views in one two-pointer pass (ties\n"
"keep ``a`` first).  The query-cache merge kernel behind query_many.");

static PyObject *
native_merge_views(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *av_obj, *ac_obj, *bv_obj, *bc_obj;
    if (!PyArg_ParseTuple(args, "OOOO:merge_views",
                          &av_obj, &ac_obj, &bv_obj, &bc_obj))
        return NULL;
    viewpair a, b;
    if (viewpair_acquire(av_obj, ac_obj, &a) < 0)
        return NULL;
    if (viewpair_acquire(bv_obj, bc_obj, &b) < 0) {
        viewpair_release(&a);
        return NULL;
    }
    Py_ssize_t total = a.len + b.len;
    PyObject *vals_out = PyBytes_FromStringAndSize(
        NULL, total * (Py_ssize_t)sizeof(double));
    PyObject *cum_out = PyBytes_FromStringAndSize(
        NULL, total * (Py_ssize_t)sizeof(int64_t));
    if (vals_out == NULL || cum_out == NULL) {
        Py_XDECREF(vals_out);
        Py_XDECREF(cum_out);
        viewpair_release(&a);
        viewpair_release(&b);
        return NULL;
    }
    double *vals = (double *)PyBytes_AS_STRING(vals_out);
    int64_t *cum = (int64_t *)PyBytes_AS_STRING(cum_out);
    /* An element's merged cumulative weight is its own view's plus the
     * other view's weight consumed so far.  Locals, not the viewpair
     * fields, because the int64 stores could alias those. */
    const double *av = a.v, *bv = b.v;
    const int64_t *ac = a.c, *bc = b.c;
    const Py_ssize_t na = a.len, nb = b.len;
    Py_ssize_t i = 0, j = 0, o = 0;
    int64_t a_done = 0, b_done = 0;
    while (i < na && j < nb) {
        if (av[i] <= bv[j]) {
            a_done = ac[i];
            vals[o] = av[i++];
            cum[o++] = a_done + b_done;
        }
        else {
            b_done = bc[j];
            vals[o] = bv[j++];
            cum[o++] = a_done + b_done;
        }
    }
    for (; i < na; i++, o++) {
        vals[o] = av[i];
        cum[o] = ac[i] + b_done;
    }
    for (; j < nb; j++, o++) {
        vals[o] = bv[j];
        cum[o] = bc[j] + a_done;
    }
    viewpair_release(&a);
    viewpair_release(&b);
    return Py_BuildValue("(NN)", vals_out, cum_out);
}

PyDoc_STRVAR(weighted_select_doc,
"weighted_select(values, cumweights, position, /) -> float\n\n"
"The smallest value whose cumulative weight reaches ``position`` — one\n"
"binary search per quantile of the query_many rank walk.  Raises\n"
"ValueError when the position exceeds the total weight.");

static PyObject *
native_weighted_select(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *vals_obj, *cum_obj;
    long long position;
    if (!PyArg_ParseTuple(args, "OOL:weighted_select",
                          &vals_obj, &cum_obj, &position))
        return NULL;
    viewpair p;
    if (viewpair_acquire(vals_obj, cum_obj, &p) < 0)
        return NULL;
    Py_ssize_t lo = 0, hi = p.len;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (p.c[mid] < (int64_t)position)
            lo = mid + 1;
        else
            hi = mid;
    }
    if (lo >= p.len) {
        int64_t total = p.len ? p.c[p.len - 1] : 0;
        viewpair_release(&p);
        PyErr_Format(PyExc_ValueError,
                     "position %lld exceeds total weight %lld",
                     position, (long long)total);
        return NULL;
    }
    double value = p.v[lo];
    viewpair_release(&p);
    return PyFloat_FromDouble(value);
}

PyDoc_STRVAR(query_many_doc,
"query_many(values, cumweights, positions, /) -> bytes\n\n"
"The vectorised rank walk: answer every cumulative-weight position in\n"
"one call, packed as float64 bytes in input order.  Bit-identical to\n"
"one weighted_select per position (same lower-bound law, same\n"
"ValueError when a position exceeds the total weight), but the whole\n"
"phi grid pays a single boundary crossing, and ascending positions —\n"
"the sorted-phi common case — restart each search at the previous\n"
"answer's index instead of zero.");

static PyObject *
native_query_many(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *vals_obj, *cum_obj, *pos_obj;
    if (!PyArg_ParseTuple(args, "OOO:query_many",
                          &vals_obj, &cum_obj, &pos_obj))
        return NULL;
    PyObject *fast = PySequence_Fast(pos_obj, "expected a sequence of positions");
    if (fast == NULL)
        return NULL;
    viewpair p;
    if (viewpair_acquire(vals_obj, cum_obj, &p) < 0) {
        Py_DECREF(fast);
        return NULL;
    }
    Py_ssize_t n = PySequence_Fast_GET_SIZE(fast);
    PyObject *out = PyBytes_FromStringAndSize(
        NULL, n * (Py_ssize_t)sizeof(double));
    if (out == NULL) {
        viewpair_release(&p);
        Py_DECREF(fast);
        return NULL;
    }
    double *res = (double *)PyBytes_AS_STRING(out);
    /* Floor reuse: a lower-bound answer idx for position q has
     * c[i] < q for every i < idx, so any later position q' >= q can
     * start its search at idx — exactly the same index a full search
     * would find.  Descending positions reset to a full search. */
    Py_ssize_t floor_idx = 0;
    long long prev_position = LLONG_MIN;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *item = PySequence_Fast_GET_ITEM(fast, i);
        long long position = PyLong_AsLongLong(item);
        if (position == -1 && PyErr_Occurred())
            goto fail;
        Py_ssize_t lo = position >= prev_position ? floor_idx : 0;
        Py_ssize_t hi = p.len;
        while (lo < hi) {
            Py_ssize_t mid = lo + (hi - lo) / 2;
            if (p.c[mid] < (int64_t)position)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo >= p.len) {
            int64_t total = p.len ? p.c[p.len - 1] : 0;
            PyErr_Format(PyExc_ValueError,
                         "position %lld exceeds total weight %lld",
                         position, (long long)total);
            goto fail;
        }
        res[i] = p.v[lo];
        floor_idx = lo;
        prev_position = position;
    }
    viewpair_release(&p);
    Py_DECREF(fast);
    return out;
fail:
    viewpair_release(&p);
    Py_DECREF(fast);
    Py_DECREF(out);
    return NULL;
}

PyDoc_STRVAR(cum_at_doc,
"cum_at(values, cumweights, value, /) -> int\n\n"
"Total weight of merged elements <= ``value`` (the inverse rank query).");

static PyObject *
native_cum_at(PyObject *self, PyObject *args)
{
    (void)self;
    PyObject *vals_obj, *cum_obj;
    double value;
    if (!PyArg_ParseTuple(args, "OOd:cum_at", &vals_obj, &cum_obj, &value))
        return NULL;
    viewpair p;
    if (viewpair_acquire(vals_obj, cum_obj, &p) < 0)
        return NULL;
    /* upper bound: first index with v[index] > value */
    Py_ssize_t lo = 0, hi = p.len;
    while (lo < hi) {
        Py_ssize_t mid = lo + (hi - lo) / 2;
        if (p.v[mid] <= value)
            lo = mid + 1;
        else
            hi = mid;
    }
    long long result = lo ? (long long)p.c[lo - 1] : 0;
    viewpair_release(&p);
    return PyLong_FromLongLong(result);
}

/* ------------------------------------------------------------------ */
/* Module                                                              */
/* ------------------------------------------------------------------ */

static PyMethodDef native_methods[] = {
    {"pack_doubles", native_pack_doubles, METH_O, pack_doubles_doc},
    {"sorted_doubles", native_sorted_doubles, METH_O, sorted_doubles_doc},
    {"contains_nan", native_contains_nan, METH_O, contains_nan_doc},
    {"block_reps", native_block_reps, METH_VARARGS, block_reps_doc},
    {"write_slot", native_write_slot, METH_VARARGS, write_slot_doc},
    {"merge_weighted", native_merge_weighted, METH_O, merge_weighted_doc},
    {"select_collapse", native_select_collapse, METH_VARARGS, select_collapse_doc},
    {"merge_views", native_merge_views, METH_VARARGS, merge_views_doc},
    {"weighted_select", native_weighted_select, METH_VARARGS, weighted_select_doc},
    {"query_many", native_query_many, METH_VARARGS, query_many_doc},
    {"cum_at", native_cum_at, METH_VARARGS, cum_at_doc},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernels._native",
    "Compiled kernels of the native backend (see repro.kernels.native_backend).",
    -1,
    native_methods,
    NULL,
    NULL,
    NULL,
    NULL,
};

PyMODINIT_FUNC
PyInit__native(void)
{
    mt_probe();
    return PyModule_Create(&native_module);
}
