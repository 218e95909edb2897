/* Known defect (fusion probe): a row pointer passed into a pure call
   after a loop writing that array. f(A[j]) reads all of row A[j], but the
   two loops are fused.
   usage: fusion_row_call SEED N */
#include <stdio.h>
#include <stdlib.h>

float **A, **C;

pure float get(pure float* row, int k) {
  return row[k];
}

int main(int argc, char** argv) {
  if (argc < 3) return 2;
  int seed = atoi(argv[1]);
  int n = atoi(argv[2]);
  A = (float**)malloc(n * sizeof(float*));
  C = (float**)malloc(n * sizeof(float*));
  for (int i = 0; i < n; i++) {
    A[i] = (float*)calloc(n, sizeof(float));
    C[i] = (float*)calloc(n, sizeof(float));
  }
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      A[i][j] = (float)((i * 3 + j + seed) % 13);
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      C[i][j] = get((pure float*)A[j], 0);
  double checksum = 0.0;
  for (int i = 0; i < n; i++)
    for (int j = 0; j < n; j++)
      checksum += (double)C[i][j] * ((i + 2 * j) % 5);
  printf("checksum %.6f\n", checksum);
  return 0;
}
