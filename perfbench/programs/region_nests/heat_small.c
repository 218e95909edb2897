/* Heat distribution on a small grid over many time steps: one short
   parallel region per step.
   usage: heat_small SEED N STEPS */
#include <stdio.h>
#include <stdlib.h>

float **cur, **nxt;

pure float stencil(pure float** g, int i, int j) {
  return 0.25f * (g[i - 1][j] + g[i + 1][j] + g[i][j - 1] + g[i][j + 1]);
}

void step(int n) {
  for (int i = 1; i < n - 1; i++)
    for (int j = 1; j < n - 1; j++)
      nxt[i][j] = stencil((pure float**)cur, i, j);
}

int main(int argc, char** argv) {
  if (argc < 4) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  int steps = atoi(argv[3]);
  cur = (float**)malloc(n * sizeof(float*));
  nxt = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    cur[i] = (float*)malloc(n * sizeof(float));
    nxt[i] = (float*)malloc(n * sizeof(float));
    for (int j = 0; j < n; j++) {
      cur[i][j] = (float)((i * 13 + j * 7 + seed) % 19) * 0.125f;
      nxt[i][j] = cur[i][j];
    }
  }
  for (int s = 0; s < steps; s++) {
    step(n);
    float** t = cur;
    cur = nxt;
    nxt = t;
  }
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)cur[i][j] * ((i + 3 * j) % 7);
  printf("checksum %.6f\n", checksum);
  return 0;
}
