/* Native kernel primitives over packed little-endian uint64 rows.
 *
 * This module implements the profiled-worst batched primitives of the
 * kernel ABI (see repro/kernels/base.py) as plain C loops:
 *
 *   intersect_count_bounded(rows, mask, smin)  -> (joint bytes, supports)
 *   superset_max_support_bounded(rows, supports, mask, smin) -> int
 *   popcount_rows(rows)                        -> supports
 *
 * `rows` is any C-contiguous 2-D buffer of 8-byte items (the resident
 * PackedTable matrix exposes one through the buffer protocol), `mask`
 * the probe packed to the table width with int.to_bytes(..., "little").
 * No numpy headers are needed: the module consumes raw buffers and
 * returns bytes, and the Python wrapper (repro/kernels/native.py) wraps
 * them back into PackedTable rows.  AND, popcount and the containment
 * test are endian-agnostic on the packed byte layout, so interpreting
 * the little-endian rows as native uint64 words is exact everywhere.
 *
 * Bounded primitives honour the exact BELOW_BOUND sentinel contract:
 * a row whose true joint popcount is below smin reports support -1 and
 * a zeroed joint, whether or not the per-word early abort
 * (count + remaining_words * 64 < smin, arXiv:1901.07773) fired for it.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>

#include <stdint.h>
#include <string.h>

/* Must equal repro.kernels.base.BELOW_BOUND (asserted at import time
 * by the Python wrapper via the BELOW_BOUND module constant). */
#define NATIVE_BELOW_BOUND (-1)

#if defined(__GNUC__) || defined(__clang__)
#define popcount64(x) ((int64_t)__builtin_popcountll((unsigned long long)(x)))
#else
static int64_t
popcount64(uint64_t v)
{
    v = v - ((v >> 1) & UINT64_C(0x5555555555555555));
    v = (v & UINT64_C(0x3333333333333333)) +
        ((v >> 2) & UINT64_C(0x3333333333333333));
    v = (v + (v >> 4)) & UINT64_C(0x0F0F0F0F0F0F0F0F);
    return (int64_t)((v * UINT64_C(0x0101010101010101)) >> 56);
}
#endif

typedef struct {
    Py_buffer view;
    Py_ssize_t n_rows;
    Py_ssize_t n_words;
    const uint64_t *data;
} rows_buffer;

static int
get_rows(PyObject *obj, rows_buffer *rows)
{
    if (PyObject_GetBuffer(obj, &rows->view, PyBUF_C_CONTIGUOUS) < 0)
        return -1;
    if (rows->view.ndim != 2 || rows->view.itemsize != 8) {
        PyBuffer_Release(&rows->view);
        PyErr_SetString(PyExc_TypeError,
                        "rows must be a C-contiguous 2-D buffer of "
                        "8-byte words");
        return -1;
    }
    rows->n_rows = rows->view.shape[0];
    rows->n_words = rows->view.shape[1];
    rows->data = (const uint64_t *)rows->view.buf;
    return 0;
}

/* Copy the packed probe into an owned aligned word buffer (the bytes
 * object's internal pointer has no alignment guarantee in the buffer
 * protocol contract). */
static uint64_t *
get_mask(Py_buffer *mask_view, Py_ssize_t n_words)
{
    uint64_t *words;
    if (mask_view->len != n_words * 8) {
        PyErr_Format(PyExc_ValueError,
                     "mask must pack to the table width: expected %zd "
                     "bytes, got %zd", n_words * 8, mask_view->len);
        return NULL;
    }
    words = (uint64_t *)PyMem_Malloc((size_t)(n_words ? n_words : 1) * 8);
    if (words == NULL) {
        PyErr_NoMemory();
        return NULL;
    }
    memcpy(words, mask_view->buf, (size_t)n_words * 8);
    return words;
}

static PyObject *
native_intersect_count_bounded(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *out = NULL, *supports = NULL, *result = NULL;
    Py_buffer mask_view;
    rows_buffer rows;
    uint64_t *mask = NULL, *dst;
    long long smin;
    Py_ssize_t i, w, n_words;

    if (!PyArg_ParseTuple(args, "Oy*L:intersect_count_bounded",
                          &rows_obj, &mask_view, &smin))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0) {
        PyBuffer_Release(&mask_view);
        return NULL;
    }
    n_words = rows.n_words;
    mask = get_mask(&mask_view, n_words);
    if (mask == NULL)
        goto done;
    out = PyBytes_FromStringAndSize(NULL, rows.n_rows * n_words * 8);
    supports = PyList_New(rows.n_rows);
    if (out == NULL || supports == NULL)
        goto done;
    dst = (uint64_t *)PyBytes_AS_STRING(out);
    for (i = 0; i < rows.n_rows; i++) {
        const uint64_t *src = rows.data + i * n_words;
        uint64_t *row = dst + i * n_words;
        int64_t count = 0;
        PyObject *value;
        /* Early-stopping rule: once the running count plus the
         * remaining-word upper bound cannot reach smin, the row is
         * settled — its tail words are never touched.  With smin <= 0
         * the bound never fires and no row is sentinelled. */
        for (w = 0; w < n_words; w++) {
            uint64_t joint = src[w] & mask[w];
            row[w] = joint;
            count += popcount64(joint);
            if (count + (int64_t)(n_words - 1 - w) * 64 < smin)
                break;
        }
        if (count < smin) {
            memset(row, 0, (size_t)n_words * 8);
            count = NATIVE_BELOW_BOUND;
        }
        value = PyLong_FromLongLong(count);
        if (value == NULL)
            goto done;
        PyList_SET_ITEM(supports, i, value);
    }
    result = PyTuple_Pack(2, out, supports);
done:
    Py_XDECREF(out);
    Py_XDECREF(supports);
    PyMem_Free(mask);
    PyBuffer_Release(&rows.view);
    PyBuffer_Release(&mask_view);
    return result;
}

static PyObject *
native_superset_max_support_bounded(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *supports_obj, *fast = NULL, *result = NULL;
    Py_buffer mask_view;
    rows_buffer rows;
    uint64_t *mask = NULL;
    long long smin, best = 0;
    Py_ssize_t i, w, n_words;

    if (!PyArg_ParseTuple(args, "OOy*L:superset_max_support_bounded",
                          &rows_obj, &supports_obj, &mask_view, &smin))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0) {
        PyBuffer_Release(&mask_view);
        return NULL;
    }
    n_words = rows.n_words;
    mask = get_mask(&mask_view, n_words);
    if (mask == NULL)
        goto done;
    fast = PySequence_Fast(supports_obj, "supports must be a sequence");
    if (fast == NULL)
        goto done;
    if (PySequence_Fast_GET_SIZE(fast) != rows.n_rows) {
        PyErr_Format(PyExc_ValueError,
                     "supports length %zd does not match %zd rows",
                     PySequence_Fast_GET_SIZE(fast), rows.n_rows);
        goto done;
    }
    for (i = 0; i < rows.n_rows; i++) {
        long long support =
            PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        const uint64_t *src;
        int contains = 1;
        if (support == -1 && PyErr_Occurred())
            goto done;
        /* The support prefilter is the early abort: a row below smin
         * (or below the best answer so far) never reaches the
         * containment test. */
        if (support < smin || support <= best)
            continue;
        src = rows.data + i * n_words;
        for (w = 0; w < n_words; w++) {
            if ((src[w] & mask[w]) != mask[w]) {
                contains = 0;
                break;
            }
        }
        if (contains)
            best = support;
    }
    result = PyLong_FromLongLong(best);
done:
    Py_XDECREF(fast);
    PyMem_Free(mask);
    PyBuffer_Release(&rows.view);
    PyBuffer_Release(&mask_view);
    return result;
}

static PyObject *
native_popcount_rows(PyObject *Py_UNUSED(self), PyObject *args)
{
    PyObject *rows_obj, *supports = NULL, *result = NULL;
    rows_buffer rows;
    Py_ssize_t i, w;

    if (!PyArg_ParseTuple(args, "O:popcount_rows", &rows_obj))
        return NULL;
    if (get_rows(rows_obj, &rows) < 0)
        return NULL;
    supports = PyList_New(rows.n_rows);
    if (supports == NULL)
        goto done;
    for (i = 0; i < rows.n_rows; i++) {
        const uint64_t *src = rows.data + i * rows.n_words;
        int64_t count = 0;
        PyObject *value;
        for (w = 0; w < rows.n_words; w++)
            count += popcount64(src[w]);
        value = PyLong_FromLongLong(count);
        if (value == NULL) {
            Py_CLEAR(supports);
            goto done;
        }
        PyList_SET_ITEM(supports, i, value);
    }
    result = supports;
    supports = NULL;
done:
    Py_XDECREF(supports);
    PyBuffer_Release(&rows.view);
    return result;
}

static PyMethodDef native_methods[] = {
    {"intersect_count_bounded", native_intersect_count_bounded, METH_VARARGS,
     "intersect_count_bounded(rows, mask, smin) -> (joint bytes, "
     "supports with the BELOW_BOUND sentinel)"},
    {"superset_max_support_bounded", native_superset_max_support_bounded,
     METH_VARARGS,
     "superset_max_support_bounded(rows, supports, mask, smin) -> "
     "largest support >= smin over rows containing mask (0 if none)"},
    {"popcount_rows", native_popcount_rows, METH_VARARGS,
     "popcount_rows(rows) -> per-row popcounts"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef native_module = {
    PyModuleDef_HEAD_INIT,
    "repro.kernels._native",
    "C implementations of the profiled-worst kernel primitives "
    "(consumed through repro.kernels.native.NativeBackend).",
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
    PyObject *module = PyModule_Create(&native_module);
    if (module == NULL)
        return NULL;
    if (PyModule_AddIntConstant(module, "BELOW_BOUND",
                                NATIVE_BELOW_BOUND) < 0) {
        Py_DECREF(module);
        return NULL;
    }
    return module;
}
