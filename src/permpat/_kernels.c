/* Compiled matching kernels, and the parsing, validation and printing of
 * permutations.
 *
 * Same contract as permpat/_kernels_py.py; permpat/_kernels.py builds this
 * file with the system C compiler and loads it through ctypes.  Values are
 * C longs (the item type of Python's array('l')), which no function here
 * modifies.  A function that returns a count or a flag returns a code
 * instead when it has none: -1 when a malloc failed, -2 for an input outside
 * its contract, and -3 when the result could pass 2^63 - 1.
 *
 * Counts are long long.  A search without the prefix-count table adds 1 per
 * copy, so a count past 2^63 - 1 would take 2^63 steps first: it cannot
 * overflow in practice.  A search with the table, which serves only texts of
 * n <= 2048, adds at each leaf the placements of its free elements: at most
 * n for one; for two, a product of two rectangle sizes that sum to at most
 * n, so at most floor(n / 2)^2 <= 2^20, or C(m, 2) < 2^21 when both share
 * one rectangle of m <= n elements.  A count could thus wrap only after
 * more than 2^63 / 2^21 = 2^42 > 4 * 10^12 leaves, and count_pattern
 * returns -3 rather than let it: its table searches stop at
 * TABLE_COUNT_LIMIT.  Below that limit every total is exact, also the sum
 * #pat + #pat' that a swap pair counts (at most C(n, k)) and the
 * difference taken from it.  The inversions of a permutation of 1..n number
 * at most n(n - 1)/2, under 2^63 for the n <= UINT32_MAX that
 * count_inversions accepts; it returns -3 past that.
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

/* A table search returns -3 once its total reaches this: a leaf adds at
 * most C(TABLE_MAX_N, 2) < 2^21, so the total cannot wrap first. */
#define TABLE_COUNT_LIMIT (LLONG_MAX - (1LL << 21) + 1)

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

/* One backtracking search over m pattern positions, in position order.
 * Slot j < m holds the text position idx[j] and the value val[j] matched at
 * searched position j.  Slot LOW = m bounds every text element from before
 * and below (position -1, value 0), and slot HIGH = m + 1 from after and
 * above (position n, value n + 1), so pred[j] and succ[j], the slots whose
 * values bound position j's, always name a slot.  pin puts searched
 * position 0 on text position 0.
 *
 * With nfree 0 each match adds 1.  Otherwise nfree pattern positions are
 * free, and each match is a leaf that adds their placements: free element f
 * lies in the rectangle of the text whose positions run between those of
 * slots rect[f][0] and rect[f][1], and whose values run between those of
 * slots rect[f][2] and rect[f][3].  A leaf adds the size of the one
 * rectangle, the product of the two sizes, or C(size, 2) when the two
 * elements share one rectangle. */
struct search {
    long m, *pred, *succ;
    int pin, nfree, shared;
    long rect[2][4];
};

/* Order constraints of p[0..m), a permutation of 1..m: pred[j] is the slot
 * of the earlier position with the largest smaller value, succ[j] that of
 * the one with the smallest larger value, and LOW or HIGH when there is
 * none.  list holds 3(m + 2) longs: a doubly linked list over the values
 * 0..m + 1, in which 0 stands for LOW and m + 1 for HIGH, and the slot of
 * each value.  From j = m - 1 down to 0 the list holds the values of
 * positions 0..j, so the neighbours of p[j] in it are its constraints; then
 * p[j] is unlinked.  O(m) in all. */
static void order_constraints(const long *p, long m, long *pred, long *succ, long *list)
{
    long *prev = list, *next = list + (m + 2), *slot = list + 2 * (m + 2);
    for (long v = 0; v <= m + 1; v++) {
        prev[v] = v - 1;
        next[v] = v + 1;
    }
    slot[0] = m;
    slot[m + 1] = m + 1;
    for (long j = 0; j < m; j++)
        slot[p[j]] = j;
    for (long j = m - 1; j >= 0; j--) {
        long v = p[j];
        pred[j] = slot[prev[v]];
        succ[j] = slot[next[v]];
        next[prev[v]] = next[v];
        prev[next[v]] = prev[v];
    }
}

/* Plans the search of p[0..k) that frees positions c < d, each -1 when
 * absent; pos[v] is the position of value v in p.  The searched positions'
 * values, re-ranked to 1..m, go to red, and their order constraints to pred
 * and succ.  A free element's rectangle is bounded by its nearest searched
 * neighbours by position and by value, or by LOW and HIGH. */
static void plan(struct search *s, const long *p, const long *pos, long k, long c, long d,
                 int pin, long *red, long *pred, long *succ, long *list)
{
    long m = 0;
    for (long x = 0; x < k; x++)
        if (x != c && x != d)
            red[m++] = p[x] - (c >= 0 && p[c] < p[x]) - (d >= 0 && p[d] < p[x]);
    order_constraints(red, m, pred, succ, list);
    s->m = m;
    s->pred = pred;
    s->succ = succ;
    s->pin = pin;
    s->nfree = (int)(k - m);
    long free_pos[2] = {c, d};
    for (int f = 0; f < s->nfree; f++) {
        long x = free_pos[f], y = free_pos[1 - f];
        long y_val = y >= 0 ? p[y] : 0;
        long before = x - 1 - (x - 1 == y), after = x + 1 + (x + 1 == y);
        long below = p[x] - 1 - (p[x] - 1 == y_val), above = p[x] + 1 + (p[x] + 1 == y_val);
        long bound[4] = {before, after, below >= 1 ? pos[below] : -1, above <= k ? pos[above] : k};
        for (int b = 0; b < 4; b++) {
            long q = bound[b];
            s->rect[f][b] = q < 0 ? m : q >= k ? m + 1 : q - (c >= 0 && c < q) - (d >= 0 && d < q);
        }
    }
    s->shared = s->nfree == 2 && memcmp(s->rect[0], s->rect[1], sizeof s->rect[0]) == 0;
}

/* A pair c < d of p[from..k) with d - c >= 2 and |p[c] - p[d]| >= 2: then
 * a searched position lies between them and a searched value too, and
 * their rectangles are disjoint in both coordinates.  0 when there is
 * none.  At most two d are value neighbours of p[c], so each c tries at
 * most three d, and the scan is O(k). */
static int exact_pair(const long *p, long k, long from, long *c, long *d)
{
    for (long a = from; a < k; a++)
        for (long b = a + 2; b < k && b < a + 5; b++)
            if (p[a] - p[b] >= 2 || p[b] - p[a] >= 2) {
                *c = a;
                *d = b;
                return 1;
            }
    return 0;
}

/* A pair c < d of p[from..k) such that exchanging their values leaves an
 * exact pair (c2, d2) of p[from..k); 0 when there is none.  Called only
 * when p[from..k) has no exact pair, which needs k - from <= 4: positions
 * and values each join at most k - from - 1 neighbouring pairs, fewer than
 * the C(k - from, 2) pairs once k - from >= 5. */
static int swap_pair(long *p, long k, long from, long *c, long *d, long *c2, long *d2)
{
    for (long a = from; a < k; a++)
        for (long b = a + 1; b < k; b++) {
            long t = p[a];
            p[a] = p[b];
            p[b] = t;
            int found = exact_pair(p, k, from, c2, d2);
            p[b] = p[a];
            p[a] = t;
            if (found) {
                *c = a;
                *d = b;
                return 1;
            }
        }
    return 0;
}

/* Text elements in the rectangle that slots r[0..4) bound, from four
 * reads of the table: those after r[0]'s position and between r[2]'s and
 * r[3]'s values, less those at r[1]'s position or later. */
static long long rect_size(const unsigned short *below, long w, const long *idx,
                           const long *val, const long *r)
{
    const unsigned short *from = below + (size_t)(idx[r[0]] + 1) * (size_t)w;
    const unsigned short *to = below + (size_t)idx[r[1]] * (size_t)w;
    long lo = val[r[2]] + 1, hi = val[r[3]];
    return (long long)(from[hi] - from[lo]) - (to[hi] - to[lo]);
}

/* Placements of the free elements at a leaf of s. */
static long long leaf(const struct search *s, const unsigned short *below, long w,
                      const long *idx, const long *val)
{
    long long a = rect_size(below, w, idx, val, s->rect[0]);
    if (s->nfree == 1)
        return a;
    if (s->shared)
        return a * (a - 1) / 2;
    return a * rect_size(below, w, idx, val, s->rect[1]);
}

/* Matches of s in txt[0..n), idx and val holding m + 2 slots.  The last
 * searched position adds 1 or a leaf per candidate.  The table is built
 * into *below at the first leaf, so a search whose prefixes all die early
 * never pays for it.  detect, which only a search without free positions
 * gets, returns 1 at the first match. */
static long long search(const struct search *s, const long *txt, long n, int detect,
                        unsigned short **below, long *idx, long *val)
{
    long m = s->m;
    idx[m] = -1;
    val[m] = 0;
    idx[m + 1] = n;
    val[m + 1] = n + 1;
    long long total = 0;
    long j = 0, i = 0;
    for (;;) {
        long lo = val[s->pred[j]], hi = val[s->succ[j]];
        long last = (s->pin && j == 0) ? 0 : n - (m - j);
        int descended = 0;
        if (j == m - 1) {
            for (; i <= last; i++) {
                if (lo < txt[i] && txt[i] < hi) {
                    if (s->nfree == 0) {
                        if (detect)
                            return 1;
                        total++;
                    } else {
                        if (*below == NULL && (*below = below_table(txt, n)) == NULL)
                            return -1;
                        idx[j] = i;
                        val[j] = txt[i];
                        total += leaf(s, *below, n + 2, idx, val);
                        if (total >= TABLE_COUNT_LIMIT)
                            return -3;
                    }
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
    return total;
}

/* Order-isomorphic occurrences of pat[0..k) in txt[0..n), values in 1..k and
 * 1..n.  Backtracks over pattern positions left to right; each position's
 * candidates are bounded by the values matched at its order constraints.
 * pin_first puts pattern position 0 on text position 0; detect returns 1 at
 * the first copy, so the result is 0 or 1.  Pattern values index arrays
 * here, so a pattern that is not a permutation of 1..k returns -2 before
 * any is read as an index.
 *
 * A count (not detect) with k >= 3 on a text of n <= TABLE_MAX_N
 * searches all but two free positions c < d, and each leaf adds the
 * placements of both from the prefix-count table.  When pinned, position 0
 * stays searched and the pair is taken from positions 1..k - 1.  An exact
 * pair's leaves count the copies of pat.  Any other pair's leaves count
 * the copies of pat and of pat', pat with the values at c and d exchanged,
 * since the two elements then share their positions' or their values'
 * range; pat' restricted to the searched positions is pat's, and it is
 * counted through an exact pair of its own and subtracted.  Unpinned, only
 * k <= 4 lacks an exact pair (2413 and 3142 of the 4-patterns, and all
 * 3-patterns but 123 and 321).  Pinned at k = 3, no pair of positions 1
 * and 2 serves, and position 2 alone is freed.  The search thus reaches
 * O(n^(k - 2)) leaves unpinned and O(n^(k - 3)) pinned (O(n) at k = 3). */
long long count_pattern(const long *pat, long k, const long *txt, long n,
                        int pin_first, int detect)
{
    if (k < 1 || k > n)
        return 0;
    long *work = malloc((12 * (size_t)k + 11) * sizeof(long));
    if (work == NULL)
        return -1;
    long *p = work, *pos = p + k, *red = pos + k + 1, *list = red + k;
    long *idx = list + 3 * (k + 2), *val = idx + k + 2, *cons = val + k + 2;
    for (long v = 1; v <= k; v++)
        pos[v] = -1;
    for (long x = 0; x < k; x++) {
        if (pat[x] < 1 || pat[x] > k || pos[pat[x]] >= 0) {
            free(work);
            return -2;
        }
        pos[pat[x]] = x;
    }
    memcpy(p, pat, (size_t)k * sizeof *p);

    struct search s[2];
    long c = -1, d = -1, c2 = -1, d2 = -1, from = pin_first != 0;
    int searches = 1;
    if (!detect && k >= 3 && n <= TABLE_MAX_N && !exact_pair(p, k, from, &c, &d)) {
        if (swap_pair(p, k, from, &c, &d, &c2, &d2))
            searches = 2;
        else if (pin_first)
            c = k - 1;
    }
    plan(&s[0], p, pos, k, c, d, pin_first != 0, red, cons, cons + k, list);
    if (searches == 2) {
        long t = p[c];
        p[c] = p[d];
        p[d] = t;
        pos[p[c]] = c;
        pos[p[d]] = d;
        plan(&s[1], p, pos, k, c2, d2, pin_first != 0, red, cons + 2 * k, cons + 3 * k, list);
    }

    unsigned short *below = NULL;
    long long total = search(&s[0], txt, n, detect, &below, idx, val);
    if (searches == 2 && total >= 0) {
        long long other = search(&s[1], txt, n, detect, &below, idx, val);
        total = other < 0 ? other : total - other;
    }
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
 * repeated, before it is marked, -3 when n > UINT32_MAX (a count could
 * wrap), and -1 when malloc fails. */
long long count_inversions(const long *a, long n)
{
    if (n < 1)
        return 0;
    if ((unsigned long long)n > UINT32_MAX)
        return -3;
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
 * digits and every other byte is a separator; -2 otherwise, for the caller
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
            return -2;
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
