/* Region SCoP: affine if/else guards become per-statement domains.
   usage: guarded_update SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

pure float scale(float v) { return 3.0f * v + 1.0f; }
pure float shift(float v) { return 0.5f * v - 2.0f; }

void split_update(float* a, float* b, float* c, float* x, int n, int m) {
  for (int i = 0; i < n; i++) {
    if (i < m)
      a[i] = scale(x[i]);
    else
      b[i] = shift(x[i]);
    c[i] = a[i + m] + b[i];
  }
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  int m = n / 4;
  float* a = (float*)malloc((n + m) * sizeof(float));
  float* b = (float*)malloc(n * sizeof(float));
  float* c = (float*)malloc(n * sizeof(float));
  float* x = (float*)malloc(n * sizeof(float));
  for (int i = 0; i < n + m; i++) a[i] = (float)((i * 7 + 5 + seed) % 19) * 0.25f;
  for (int i = 0; i < n; i++) {
    b[i] = (float)((i * 3 + 1 + seed) % 13) * 0.5f;
    c[i] = 0.0f;
    x[i] = (float)((i * 11 + 2 + seed) % 17) * 0.125f;
  }
  for (int s = 0; s < steps; s++) split_update(a, b, c, x, n, m);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    checksum += ((double)a[i] + (double)b[i] + (double)c[i]) * (i % 9);
  printf("checksum %.6f\n", checksum);
  return 0;
}
