/* Compiled matching kernels.
 *
 * Same contract as permpat/_kernels_py.py; permpat/_kernels.py builds this
 * file with the system C compiler and loads it through ctypes.  Values are
 * C longs (the item type of Python's array('l')); both functions return -1
 * when an allocation fails.
 *
 * Counts are long long.  Each step of the search adds at most n to the
 * count: one copy in the scan, or at most n copies from one range query of
 * the last-level table, which serves only texts of n <= 2048.  A count past
 * 2^63 - 1 would thus take over 2^63 / 2048 > 4 * 10^15 steps first: it
 * cannot overflow in practice.
 */
#include <stdlib.h>
#include <string.h>

/* The last-level table serves texts up to this length: it then takes at most
 * 2049 * 2050 * 2 bytes (8.4 MB), and its counts fit in an unsigned short. */
#define TABLE_MAX_N 2048

/* Table of below[s * (n + 2) + v] = #{p >= s : txt[p] < v}, for 0 <= s <= n
 * and 0 <= v <= n + 1, filled right to left; NULL when malloc fails. */
static unsigned short *below_table(const long *txt, long n)
{
    long w = n + 2;
    unsigned short *below = malloc((size_t)(n + 1) * (size_t)w * sizeof *below);
    if (below == NULL)
        return NULL;
    unsigned short *row = below + (size_t)n * (size_t)w;
    memset(row, 0, (size_t)w * sizeof *row);
    for (long s = n - 1; s >= 0; s--) {
        const unsigned short *next = row;
        row -= w;
        memcpy(row, next, (size_t)w * sizeof *row);
        for (long v = txt[s] < 0 ? 0 : txt[s] + 1; v < w; v++)
            row[v]++;
    }
    return below;
}

/* Order-isomorphic occurrences of pat[0..k) in txt[0..n), values in 1..k and
 * 1..n.  Backtracks over pattern positions left to right; each position's
 * candidates are bounded by the values matched at pred[j] (the earlier
 * position with the largest smaller pattern value) and succ[j] (smallest
 * larger).  pin_first puts pattern position 0 on text position 0; a
 * positive limit stops the search once that many copies are found.
 *
 * A full count (limit 0) with at least three free pattern positions on a
 * text of n <= TABLE_MAX_N answers the last position with one range count,
 * below[i][hi] - below[i][lo + 1], instead of a scan.  The table is built
 * the first time the search reaches the last position, so a search whose
 * prefixes all die early never pays for it. */
long long count_pattern(const long *pat, long k, const long *txt, long n,
                        int pin_first, long long limit)
{
    if (k < 1 || k > n)
        return 0;
    long *work = malloc(4 * (size_t)k * sizeof(long));
    if (work == NULL)
        return -1;
    long *pred = work, *succ = work + k, *val = work + 2 * k, *idx = work + 3 * k;

    for (long j = 0; j < k; j++) {
        long lo = 0, hi = k + 1, pj = pat[j];
        pred[j] = succ[j] = -1;
        for (long p = 0; p < j; p++) {
            if (lo < pat[p] && pat[p] < pj) {
                lo = pat[p];
                pred[j] = p;
            } else if (pj < pat[p] && pat[p] < hi) {
                hi = pat[p];
                succ[j] = p;
            }
        }
    }

    int use_table = limit == 0 && k - (pin_first != 0) >= 3 && n <= TABLE_MAX_N;
    unsigned short *below = NULL;
    long long total = 0;
    long j = 0, i = 0;
    for (;;) {
        long lo = pred[j] >= 0 ? val[pred[j]] : 0;
        long hi = succ[j] >= 0 ? val[succ[j]] : n + 1;
        long last = (pin_first && j == 0) ? 0 : n - (k - j);
        int descended = 0;
        if (j == k - 1 && use_table) {
            if (below == NULL && (below = below_table(txt, n)) == NULL) {
                total = -1;
                goto done;
            }
            const unsigned short *row = below + (size_t)i * (size_t)(n + 2);
            total += row[hi] - row[lo + 1];
        } else if (j == k - 1) {
            for (; i <= last; i++) {
                if (lo < txt[i] && txt[i] < hi) {
                    total++;
                    if (limit && total >= limit)
                        goto done;
                }
            }
        } else {
            for (; i <= last; i++) {
                if (lo < txt[i] && txt[i] < hi) {
                    idx[j] = i;
                    val[j] = txt[i];
                    j++;
                    i++;
                    descended = 1;
                    break;
                }
            }
        }
        if (descended)
            continue;
        if (j == 0)
            break;
        j--;
        i = idx[j] + 1;
    }
done:
    free(below);
    free(work);
    return total;
}

/* Sorts a[lo..hi) through buf; returns its inversion count. */
static long long merge_count(long *a, long *buf, long lo, long hi)
{
    if (hi - lo <= 1)
        return 0;
    long mid = lo + (hi - lo) / 2;
    long long inv = merge_count(a, buf, lo, mid) + merge_count(a, buf, mid, hi);
    long i = lo, j = mid, t = lo;
    while (i < mid && j < hi) {
        if (a[i] <= a[j]) {
            buf[t++] = a[i++];
        } else {
            buf[t++] = a[j++];
            inv += mid - i;
        }
    }
    while (i < mid)
        buf[t++] = a[i++];
    while (j < hi)
        buf[t++] = a[j++];
    for (t = lo; t < hi; t++)
        a[t] = buf[t];
    return inv;
}

/* Number of pairs i < j with a[i] > a[j].  Sorts a in place. */
long long count_inversions(long *a, long n)
{
    if (n < 2)
        return 0;
    long *buf = malloc((size_t)n * sizeof(long));
    if (buf == NULL)
        return -1;
    long long inv = merge_count(a, buf, 0, n);
    free(buf);
    return inv;
}
