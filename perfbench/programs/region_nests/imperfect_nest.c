/* Imperfect nest: statements around an inner accumulation loop.
   usage: imperfect_nest SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

pure float cell(float v, int j) { return v * (float)(j + 1) + 1.0f; }

void row_scan(float* s, float** g, int n, int m) {
  for (int i = 0; i < n; i++) {
    s[i] = 0.0f;
    for (int j = 0; j < m; j++)
      s[i] = s[i] + cell(g[i][j], j);
    s[i] = s[i] * 0.25f;
  }
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  int m = 16;
  float* s = (float*)malloc(n * sizeof(float));
  float** g = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    s[i] = 0.0f;
    g[i] = (float*)malloc(m * sizeof(float));
    for (int j = 0; j < m; j++)
      g[i][j] = (float)((i * 13 + j * 5 + seed) % 11) * 0.0625f;
  }
  double checksum = 0.0;
  for (int t = 0; t < steps; t++) {
    row_scan(s, g, n, m);
    checksum += (double)s[t % n];
  }
  for (int i = 0; i < n; i++) checksum += (double)s[i] * (i % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
