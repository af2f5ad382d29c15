/* Compiled matching kernels, and the parsing, validation and printing of
 * permutations.
 *
 * Same contract as permpat/_kernels_py.py; permpat/_kernels.py builds this
 * file with the system C compiler and loads it through ctypes.  Values are
 * C longs (the item type of Python's array('l')), which no function here
 * modifies; every function that allocates returns -1 when that fails.
 *
 * Counts are long long.  Each step of the search adds at most n to the
 * count: one copy in the scan, or, in the pass over the prefix-count table
 * that serves only texts of n <= 2048, at most n copies of the last pattern
 * position for each text position the pass visits.  A count past
 * 2^63 - 1 would thus take over 2^63 / 2048 > 4 * 10^15 steps first: it
 * cannot overflow in practice.  The inversions of a permutation of 1..n
 * number at most n(n - 1)/2, under 2^63 for the n <= UINT32_MAX that
 * count_inversions accepts.
 *
 * The file is standard C for any cc with the flags of _kernels.py: bits
 * are counted by popcount64's shifts and masks, not a compiler builtin.
 */
#include <limits.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* The prefix-count table serves texts up to this length: it then takes at most
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

/* Copies of the last two pattern positions, k - 2 at a text position
 * i..last with a value in (lo, hi) and k - 1 at a later one with a value in
 * (l, h): the sum over those i of below[i + 1][h] - below[i + 1][l + 1].
 * l is txt[i] when at_lo (pred[k - 1] is k - 2), else lo2; h is txt[i] when
 * at_hi, else hi2.
 *
 * Whether a text value falls in (lo, hi) is unpredictable on random texts,
 * so no branch asks it: a first loop writes every position to hit[] and
 * advances past it only when its value is in range, and a second loop sums
 * the table counts of the hits, choosing l and h with masks.  Misses cost
 * no table read, so a pass stays cheap also when few values fall in range
 * (a single loop that masks each candidate's table count out of the sum
 * made 1324 on a layered text of n = 2047 three times slower). */
static long long last_two(const unsigned short *below, long w, const long *txt,
                          long i, long last, long lo, long hi,
                          long lo2, long hi2, int at_lo, int at_hi, long *hit)
{
    unsigned long span = (unsigned long)(hi - lo - 1);
    long m = 0;
    for (; i <= last; i++) {
        hit[m] = i;
        m += (unsigned long)txt[i] - (unsigned long)lo - 1 < span;
    }
    long mlo = -(long)at_lo, mhi = -(long)at_hi;
    long long sum = 0;
    for (long t = 0; t < m; t++) {
        long x = txt[hit[t]];
        long l = (x & mlo) | (lo2 & ~mlo), h = (x & mhi) | (hi2 & ~mhi);
        const unsigned short *row = below + (size_t)(hit[t] + 1) * (size_t)w;
        sum += row[h] - row[l + 1];
    }
    return sum;
}

/* Order-isomorphic occurrences of pat[0..k) in txt[0..n), values in 1..k and
 * 1..n.  Backtracks over pattern positions left to right; each position's
 * candidates are bounded by the values matched at pred[j] (the earlier
 * position with the largest smaller pattern value) and succ[j] (smallest
 * larger).  pin_first puts pattern position 0 on text position 0; a
 * positive limit stops the search once that many copies are found.
 *
 * A full count (limit 0) with at least two free pattern positions on a text
 * of n <= TABLE_MAX_N never descends past position k - 2: there last_two
 * adds the copies of both last positions from the prefix-count table in one
 * pass over the candidates, with no branch per candidate, so the search
 * backtracks once per prefix of k - 2 positions instead of once per
 * candidate at k - 2.  The table, and the n hit[] slots of that pass, exist
 * only then; the table is built the first time the search reaches position
 * k - 2, so a search whose prefixes all die early never pays for it. */
long long count_pattern(const long *pat, long k, const long *txt, long n,
                        int pin_first, long long limit)
{
    if (k < 1 || k > n)
        return 0;
    int use_table = limit == 0 && k - (pin_first != 0) >= 2 && n <= TABLE_MAX_N;
    long *work = malloc((4 * (size_t)k + (use_table ? (size_t)n : 0)) * sizeof(long));
    if (work == NULL)
        return -1;
    long *pred = work, *succ = work + k, *val = work + 2 * k, *idx = work + 3 * k;
    long *hit = work + 4 * k;

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

    unsigned short *below = NULL;
    long long total = 0;
    long j = 0, i = 0;
    for (;;) {
        long lo = pred[j] >= 0 ? val[pred[j]] : 0;
        long hi = succ[j] >= 0 ? val[succ[j]] : n + 1;
        long last = (pin_first && j == 0) ? 0 : n - (k - j);
        int descended = 0;
        if (j == k - 2 && use_table) {
            if (below == NULL && (below = below_table(txt, n)) == NULL) {
                total = -1;
                goto done;
            }
            long p = pred[k - 1], q = succ[k - 1];
            long lo2 = p >= 0 && p != k - 2 ? val[p] : 0;
            long hi2 = q >= 0 && q != k - 2 ? val[q] : n + 1;
            total += last_two(below, n + 2, txt, i, last, lo, hi, lo2, hi2,
                              p == k - 2, q == k - 2, hit);
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

/* Bits set in x, counted in parallel within the word. */
static int popcount64(uint64_t x)
{
    x -= (x >> 1) & 0x5555555555555555ULL;
    x = (x & 0x3333333333333333ULL) + ((x >> 2) & 0x3333333333333333ULL);
    x = (x + (x >> 4)) & 0x0f0f0f0f0f0f0f0fULL;
    return (int)((x * 0x0101010101010101ULL) >> 56);
}

/* Number of pairs i < j with a[i] > a[j], for a permutation a[0..n) of
 * 1..n, by one pass that marks value v as bit (v - 1) % 64 of
 * seen[(v - 1) / 64] and counts the marked bits of each word in tree, a
 * Fenwick tree over the words: n / 8 + n / 16 bytes, about 190 KB at
 * n = 10^6.  The values below v are the tree's prefix before v's word plus
 * the marked bits of that word below v; position i adds the i earlier
 * values minus those.  No prefix reaches the last of the nw words, so the
 * tree holds nw - 1.  Returns -2 at the first value outside 1..n or
 * repeated, before it is marked, and -1 when n > UINT32_MAX (a count could
 * wrap) or malloc fails. */
long long count_inversions(const long *a, long n)
{
    if (n < 1)
        return 0;
    if ((unsigned long long)n > UINT32_MAX)
        return -1;
    long nw = (n + 63) / 64;
    uint64_t *seen = calloc((size_t)nw, sizeof *seen);
    uint32_t *tree = calloc((size_t)nw, sizeof *tree);
    long long inv = seen != NULL && tree != NULL ? 0 : -1;
    for (long i = 0; i < n && inv >= 0; i++) {
        long x = a[i];
        if (x < 1 || x > n || (seen[(x - 1) >> 6] >> ((x - 1) & 63) & 1)) {
            inv = -2;
            break;
        }
        long w = (x - 1) >> 6;
        uint64_t bit = 1ULL << ((x - 1) & 63);
        long long below = popcount64(seen[w] & (bit - 1));
        for (long p = w; p > 0; p &= p - 1)
            below += tree[p];
        inv += i - below;
        seen[w] |= bit;
        for (long p = w + 1; p < nw; p += p & -p)
            tree[p]++;
    }
    free(tree);
    free(seen);
    return inv;
}

/* 1 when a[0..n) holds each of 1..n exactly once, else 0: one pass with a
 * bitmap of the values seen. */
int is_permutation(const long *a, long n)
{
    unsigned long long *seen = calloc((size_t)n / 64 + 1, sizeof *seen);
    if (seen == NULL)
        return -1;
    int ok = 1;
    for (long i = 0; i < n && ok; i++) {
        long v = a[i] - 1;
        if (v < 0 || v >= n || (seen[v / 64] >> (v % 64) & 1))
            ok = 0;
        else
            seen[v / 64] |= 1ULL << (v % 64);
    }
    free(seen);
    return ok;
}

/* Tokens of at most this many digits fit a C long. */
#if LONG_MAX >= 999999999999999999
#define MAX_DIGITS 18
#else
#define MAX_DIGITS 9
#endif

/* The ASCII characters str.split() separates tokens on, '\t' to '\r',
 * 0x1c to 0x1f and ' ', as a mask of bits 0 to 32 tested with one shift. */
#define SEPARATORS 0x1f0003e00ULL

static int is_separator(unsigned char c)
{
    return c <= ' ' && (SEPARATORS >> c & 1);
}

/* Number of tokens in s[0..len) when every token is 1 to MAX_DIGITS ASCII
 * digits and every other byte is a separator; -1 otherwise, for the caller
 * to parse s some other way.  Each round skips the separators before a
 * token, then scans its digits.
 *
 * On success *canonical tells whether s, less one final '\n', is what
 * format_values writes for the tokens: single spaces between them, none
 * around them, and no leading zero. */
long count_values(const char *s, long len, int *canonical)
{
    const unsigned char *u = (const unsigned char *)s;
    long count = 0, i = 0;
    int canon = 1;
    for (;;) {
        long gap_start = i;
        while (i < len && is_separator(u[i]))
            i++;
        long gap = i - gap_start;
        if (i == len) {
            *canonical = canon && (gap == 0 || (gap == 1 && u[i - 1] == '\n'));
            return count;
        }
        if (gap != (count > 0) || (gap == 1 && u[i - 1] != ' '))
            canon = 0;
        long start = i;
        while (i < len && (unsigned char)(u[i] - '0') < 10)
            i++;
        if (i == start || i - start > MAX_DIGITS)
            return -1;
        if (u[start] == '0' && i - start > 1)
            canon = 0;
        count++;
    }
}

/* Writes the tokens of a text that count_values accepted to out. */
void parse_values(const char *s, long len, long *out)
{
    long v = 0;
    int in_token = 0;
    for (long i = 0; i < len; i++) {
        unsigned char c = (unsigned char)s[i];
        if (c >= '0' && c <= '9') {
            v = v * 10 + (c - '0');
            in_token = 1;
        } else if (in_token) {
            *out++ = v;
            v = 0;
            in_token = 0;
        }
    }
    if (in_token)
        *out = v;
}

static unsigned long magnitude(long v)
{
    return v < 0 ? 0UL - (unsigned long)v : (unsigned long)v;
}

/* Number of decimals of u, by comparisons with up to four digits at a
 * time. */
static int decimal_digits(unsigned long u)
{
    for (int d = 0;; d += 4) {
        if (u < 10)
            return d + 1;
        if (u < 100)
            return d + 2;
        if (u < 1000)
            return d + 3;
        if (u < 10000)
            return d + 4;
        u /= 10000;
    }
}

/* "00" to "99", two characters each. */
static const char digit_pairs[] =
    "00010203040506070809101112131415161718192021222324252627282930313233343536373839"
    "40414243444546474849505152535455565758596061626364656667686970717273747576777879"
    "8081828384858687888990919293949596979899";

/* Length of the decimals of a[0..n) joined by single spaces. */
long format_length(const long *a, long n)
{
    long len = n > 0 ? n - 1 : 0;
    for (long i = 0; i < n; i++)
        len += (a[i] < 0) + decimal_digits(magnitude(a[i]));
    return len;
}

/* Writes the decimals of a[0..n) joined by single spaces to out, which has
 * room for format_length(a, n) bytes.  Each value is written right to left,
 * two digits at a time. */
void format_values(const long *a, long n, char *out)
{
    for (long i = 0; i < n; i++) {
        if (i > 0)
            *out++ = ' ';
        if (a[i] < 0)
            *out++ = '-';
        unsigned long u = magnitude(a[i]);
        out += decimal_digits(u);
        char *p = out;
        while (u >= 100) {
            p -= 2;
            memcpy(p, digit_pairs + 2 * (u % 100), 2);
            u /= 100;
        }
        if (u >= 10) {
            p -= 2;
            memcpy(p, digit_pairs + 2 * u, 2);
        } else {
            *--p = (char)('0' + u);
        }
    }
}
